(* The performance-model intermediate representation.

   A model is a set of per-function bodies mirroring the generated
   Python of the paper's Figure 5: each function accumulates
   per-mnemonic instruction counts, where every contribution is a
   static count vector times a symbolic execution multiplicity, plus
   call sites that splice in callee models with argument bindings. *)

open Mira_symexpr
open Mira_poly

(* A signed combination of domain counts times a scalar weight.  Plain
   statements have one +1 term; else-branches of affine conditions and
   complements contribute negative terms; `fraction` annotations set
   [scale] below 1. *)
type mult = {
  terms : (int * Count.result) list;  (* (sign, count) *)
  scale : float;
  parallel : bool;
      (* inside a {parallel:yes} loop: distributable across cores
         (shared-memory extension, the paper's future work) *)
}

let mult_one =
  { terms = [ (1, Count.Closed Expr.one) ]; scale = 1.0; parallel = false }

(* Binding of one callee model parameter at a call site. *)
type arg_binding =
  | Bound of Poly.t
      (* affine/polynomial in the caller's symbols; evaluated in the
         caller's environment *)
  | Unbound of string
      (* opaque at the call site: becomes the given caller parameter
         (paper's y_16 pattern: value supplied at evaluation time) *)

type entry =
  | Update of {
      line : int;  (* source line, for readable models *)
      label : string;  (* what this bucket is: statement, loop cond, ... *)
      counts : (string * int) list;  (* mnemonic -> static count *)
      mult : mult;
    }
  | Call_site of {
      line : int;
      callee : string;  (* mangled name *)
      bindings : (string * arg_binding) list;
          (* callee model parameter -> binding *)
      mult : mult;
    }

type fmodel = {
  mf_name : string;  (* mangled source name *)
  mf_source_params : string list;  (* source-level parameter names *)
  mf_arity : int;  (* source arity (for the Python name suffix) *)
  mf_class : string option;
  mf_params : string list;  (* model parameters, in signature order *)
  mf_entries : entry list;
  mf_warnings : string list;
  mf_update_py : string option list;
      (* per-entry cached Python rendering, in lockstep with
         [mf_entries]: [Some chunk] for [Update] entries (whose text
         depends only on the entry), [None] for [Call_site] entries
         (rendered live against the assembled model) *)
}

type t = {
  functions : fmodel list;
  source_name : string;  (* provenance, for reports *)
}

let find t name = List.find_opt (fun f -> f.mf_name = name) t.functions

let find_exn t name =
  match find t name with
  | Some f -> f
  | None -> invalid_arg ("Model_ir.find_exn: no model for " ^ name)

(* Python-side function name, as in Figure 5: A_foo_2. *)
let python_name (f : fmodel) =
  let short =
    match String.rindex_opt f.mf_name ':' with
    | Some i -> String.sub f.mf_name (i + 1) (String.length f.mf_name - i - 1)
    | None -> f.mf_name
  in
  let prefix = match f.mf_class with Some c -> c ^ "_" | None -> "" in
  Printf.sprintf "%s%s_%d" prefix short f.mf_arity

let count_vars = function
  | Count.Closed e -> Expr.vars e
  | Count.Deferred d -> Domain.parameters d

(* Counts keyed by physical identity.  Metric generation hands every
   entry over one domain the same [Count.result], so a walk or a
   rendering of a count can be done once per distinct value and
   reused.  Equality is [==]; the hash is structural but bounded
   ([Hashtbl.hash] looks at a fixed number of nodes), so it stays
   cheap on the largest expressions. *)
module Count_tbl = Hashtbl.Make (struct
  type t = Count.result

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* The first entry of [fname], or of a function it reaches through its
   call sites, whose multiplicity holds a count with no closed form, as
   (function, source line).  Such counts render as 0 in the emitted
   Python, so that text cannot stand in for the evaluator there. *)
let first_deferred t fname =
  let rec visit seen = function
    | [] -> None
    | name :: rest when List.mem name seen -> visit seen rest
    | name :: rest -> (
        let entries =
          match find t name with Some f -> f.mf_entries | None -> []
        in
        let hit =
          List.find_map
            (function
              | Update { line; mult; _ } | Call_site { line; mult; _ } ->
                  if
                    List.exists
                      (function
                        | _, Count.Deferred _ -> true
                        | _, Count.Closed _ -> false)
                      mult.terms
                  then Some (name, line)
                  else None)
            entries
        in
        match hit with
        | Some _ -> hit
        | None ->
            let callees =
              List.filter_map
                (function
                  | Call_site { callee; _ } -> Some callee | Update _ -> None)
                entries
            in
            visit (name :: seen) (callees @ rest))
  in
  visit [] [ fname ]

let mult_is_static m =
  List.for_all
    (fun (_, c) ->
      match c with
      | Count.Closed e -> Expr.is_const e <> None
      | Count.Deferred d -> Domain.parameters d = [])
    m.terms

let all_warnings t =
  List.concat_map
    (fun f -> List.map (fun w -> (f.mf_name, w)) f.mf_warnings)
    t.functions
