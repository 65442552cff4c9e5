open Mira_symexpr
open Mira_poly

exception Missing_parameter of string * string

let lookup fname env p =
  match List.assoc_opt p env with
  | Some v -> v
  | None -> raise (Missing_parameter (fname, p))

let eval_count fname env (c : Count.result) : float =
  match c with
  | Count.Closed e -> Expr.eval_float (fun v -> float_of_int (lookup fname env v)) e
  | Count.Deferred d ->
      let params =
        List.map (fun p -> (p, lookup fname env p)) (Domain.parameters d)
      in
      float_of_int (Enumerate.count ~params d)

let eval_mult fname env (m : Model_ir.mult) : float =
  m.scale
  *. List.fold_left
       (fun acc (sign, c) ->
         acc +. (float_of_int sign *. eval_count fname env c))
       0.0 m.terms

(* ------------------------------------------------------------------ *)
(* Canonical mnemonic order                                            *)
(* ------------------------------------------------------------------ *)

(* The set of mnemonics an evaluation can touch is static per
   (model, fname): the union of Update count vectors over the
   call-graph reachable functions (entries are unconditional, so every
   reachable Update contributes — possibly with weight 0).  The walk
   accumulates into arrays indexed by this order, and the compiled
   programs emit their outputs in it. *)
let mnemonic_order (model : Model_ir.t) ~fname ~inclusive : string array =
  let seen = Hashtbl.create 8 in
  let mns = Hashtbl.create 32 in
  let rec go fname =
    if not (Hashtbl.mem seen fname) then begin
      Hashtbl.add seen fname ();
      match Model_ir.find model fname with
      | None -> ()
      | Some fm ->
          List.iter
            (fun entry ->
              match entry with
              | Model_ir.Update { counts; _ } ->
                  List.iter (fun (m, _) -> Hashtbl.replace mns m ()) counts
              | Model_ir.Call_site { callee; _ } ->
                  if inclusive then go callee)
            fm.mf_entries
    end
  in
  go fname;
  Hashtbl.fold (fun m () acc -> m :: acc) mns []
  |> List.sort compare |> Array.of_list

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

(* The one recursive walk behind every evaluator.  It folds [fname]'s
   entries under [env] into a fresh [width]-float accumulator: an
   Update entry's multiplicity goes to [update], and (when [inclusive])
   a call site binds the callee's env, walks the callee and hands its
   accumulator to [splice] with the call multiplicity.  Results are
   memoized per walk on (function, env projected onto its parameters).

   Names are looked up as they are needed, in entry order, callee
   bodies at their call sites: a missing one raises [Missing_parameter
   (the function looking it up, name)]. *)
let walk ~who ~inclusive ~width ~update ~splice (model : Model_ir.t) ~fname
    ~env =
  let fm =
    match Model_ir.find model fname with
    | Some fm -> fm
    | None -> invalid_arg (who ^ ": no model for " ^ fname)
  in
  let memo = Hashtbl.create 16 in
  let rec go fname (fm : Model_ir.fmodel) env =
    let key =
      (fname, List.map (fun p -> List.assoc_opt p env) fm.mf_params)
    in
    match Hashtbl.find_opt memo key with
    | Some acc -> acc
    | None ->
        let acc = Array.make width 0.0 in
        List.iter
          (fun entry ->
            match entry with
            | Model_ir.Update { line; counts; mult; _ } ->
                update fname acc ~line ~parallel:mult.parallel
                  (eval_mult fname env mult) counts
            | Model_ir.Call_site { callee; bindings; mult; _ } -> (
                match Model_ir.find model callee with
                | Some cm when inclusive ->
                    let callee_env =
                      List.map
                        (fun p ->
                          match List.assoc_opt p bindings with
                          | Some (Model_ir.Bound poly) ->
                              ( p,
                                Ratio.floor
                                  (Poly.eval
                                     (fun x ->
                                       Ratio.of_int (lookup fname env x))
                                     poly) )
                          | Some (Model_ir.Unbound name) ->
                              (p, lookup fname env name)
                          | None -> (p, lookup fname env p))
                        cm.mf_params
                    in
                    let sub = go callee cm callee_env in
                    splice acc ~parallel:mult.parallel
                      (eval_mult fname env mult) sub
                | _ -> ()  (* extern: call cost already counted *)))
          fm.mf_entries;
        Hashtbl.replace memo key acc;
        acc
  in
  go fname fm env

(* Per-mnemonic counts: mnemonic i of [mnemonic_order] accumulates at
   slot i or, when [split], its serial count at 2i and its parallel
   count at 2i+1 (a parallel call site makes the whole callee
   parallel). *)
let per_mnemonic ~who ~inclusive ~split model ~fname ~env =
  let mns = mnemonic_order model ~fname ~inclusive in
  let slot = Hashtbl.create 32 in
  Array.iteri (fun i m -> Hashtbl.replace slot m i) mns;
  let lanes = if split then 2 else 1 in
  let update _ acc ~line:_ ~parallel m counts =
    let off = if split && parallel then 1 else 0 in
    List.iter
      (fun (mn, c) ->
        let j = (lanes * Hashtbl.find slot mn) + off in
        acc.(j) <- acc.(j) +. (m *. float_of_int c))
      counts
  in
  let splice acc ~parallel m sub =
    if split && parallel then
      for i = 0 to Array.length mns - 1 do
        let j = (2 * i) + 1 in
        acc.(j) <- acc.(j) +. (m *. (sub.(2 * i) +. sub.(j)))
      done
    else Array.iteri (fun k v -> acc.(k) <- acc.(k) +. (m *. v)) sub
  in
  ( mns,
    walk ~who ~inclusive ~width:(lanes * Array.length mns) ~update ~splice
      model ~fname ~env )

let eval model ~fname ~env =
  let mns, out =
    per_mnemonic ~who:"Model_eval.eval" ~inclusive:true ~split:false model
      ~fname ~env
  in
  Array.to_list (Array.mapi (fun i m -> (m, out.(i))) mns)

let eval_exclusive model ~fname ~env =
  let mns, out =
    per_mnemonic ~who:"Model_eval.eval_exclusive" ~inclusive:false
      ~split:false model ~fname ~env
  in
  Array.to_list (Array.mapi (fun i m -> (m, out.(i))) mns)

let eval_split model ~fname ~env =
  let mns, out =
    per_mnemonic ~who:"Model_eval.eval_split" ~inclusive:true ~split:true
      model ~fname ~env
  in
  Array.to_list
    (Array.mapi (fun i m -> (m, (out.(2 * i), out.((2 * i) + 1)))) mns)

let total counts = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 counts

let count counts m =
  Option.value ~default:0.0 (List.assoc_opt m counts)

let fp_mnemonics =
  [ "addsd"; "subsd"; "mulsd"; "divsd"; "sqrtsd"; "ucomisd";
    "addpd"; "subpd"; "mulpd"; "divpd" ]

let fpi counts =
  List.fold_left (fun acc m -> acc +. count counts m) 0.0 fp_mnemonics

(* FPI under a trip-count-changing vectorizer (ablation B): on source
   lines the compiler vectorized, the binary holds the packed main
   loop AND its scalar remainder epilogue.  Bridging multiplies both
   by the full source trip count; the correction divides packed
   contributions by the lane count and drops the epilogue's scalar FP
   (it executes at most lanes-1 times per loop entry). *)
let fpi_vectorization_aware (model : Model_ir.t) ~lanes ~vectorized ~fname
    ~env =
  let lanes_f = float_of_int lanes in
  let is_packed = Mira_visa.Isa.is_packed_mnemonic in
  let update fname acc ~line ~parallel:_ m counts =
    let vectorized_line =
      List.mem line (Option.value ~default:[] (List.assoc_opt fname vectorized))
    in
    acc.(0) <-
      acc.(0)
      +. List.fold_left
           (fun a (mn, c) ->
             if not (List.mem mn fp_mnemonics) then a
             else if vectorized_line then
               if is_packed mn then a +. (m *. float_of_int c /. lanes_f)
               else a  (* epilogue copy: at most lanes-1 runs *)
             else a +. (m *. float_of_int c))
           0.0 counts
  in
  let splice acc ~parallel:_ m sub = acc.(0) <- acc.(0) +. (m *. sub.(0)) in
  (walk ~who:"Model_eval.fpi_vectorization_aware" ~inclusive:true ~width:1
     ~update ~splice model ~fname ~env).(0)
