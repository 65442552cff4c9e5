open Mira_symexpr

type level = { var : string; lo : Poly.t; hi : Poly.t; step : int }

type guard =
  | Ge of Poly.t
  | Mod_eq of Poly.t * int
  | Mod_ne of Poly.t * int

type t = { levels : level list; guards : guard list }

let empty = { levels = []; guards = [] }
let level ?(step = 1) var ~lo ~hi = { var; lo; hi; step }
let add_level t l = { t with levels = t.levels @ [ l ] }
let add_guard t g = { t with guards = t.guards @ [ g ] }
let loop_vars t = List.map (fun l -> l.var) t.levels

let equal_level a b =
  String.equal a.var b.var && a.step = b.step && Poly.equal a.lo b.lo
  && Poly.equal a.hi b.hi

let equal_guard a b =
  match (a, b) with
  | Ge p, Ge q -> Poly.equal p q
  | Mod_eq (p, m), Mod_eq (q, n) | Mod_ne (p, m), Mod_ne (q, n) ->
      m = n && Poly.equal p q
  | (Ge _ | Mod_eq _ | Mod_ne _), _ -> false

let equal a b =
  List.equal equal_level a.levels b.levels
  && List.equal equal_guard a.guards b.guards

let hash t =
  let mix h x = (h * 65599) + x in
  let h =
    List.fold_left
      (fun h l ->
        mix (mix (mix (mix h (Hashtbl.hash l.var)) l.step) (Poly.hash l.lo))
          (Poly.hash l.hi))
      0 t.levels
  in
  List.fold_left
    (fun h g ->
      match g with
      | Ge p -> mix (mix h 1) (Poly.hash p)
      | Mod_eq (p, m) -> mix (mix (mix h 2) m) (Poly.hash p)
      | Mod_ne (p, m) -> mix (mix (mix h 3) m) (Poly.hash p))
    h t.guards

let parameters t =
  let module S = Set.Make (String) in
  let lvars = S.of_list (loop_vars t) in
  let add_poly s p = List.fold_left (fun s x -> S.add x s) s (Poly.vars p) in
  let s =
    List.fold_left (fun s l -> add_poly (add_poly s l.lo) l.hi) S.empty
      t.levels
  in
  let s =
    List.fold_left
      (fun s -> function
        | Ge p | Mod_eq (p, _) | Mod_ne (p, _) -> add_poly s p)
      s t.guards
  in
  S.elements (S.diff s lvars)

type violation =
  | Nonaffine_bound of { var : string; bound : Poly.t }
  | Nonpositive_step of { var : string; step : int }
  | Duplicate_var of string
  | Nonaffine_guard of Poly.t
  | Bad_modulus of int

(* Affine in the loop variables: every monomial has total degree at
   most 1 when restricted to loop variables. *)
let affine_in_loop_vars lvars p =
  Poly.fold_terms
    (fun m _ ok ->
      ok
      &&
      let d =
        List.fold_left
          (fun d (x, e) -> if List.mem x lvars then d + e else d)
          0 m
      in
      d <= 1)
    p true

let validate t =
  let lvars = loop_vars t in
  let errs = ref [] in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun l ->
      if Hashtbl.mem seen l.var then errs := Duplicate_var l.var :: !errs
      else Hashtbl.add seen l.var ();
      if l.step <= 0 then
        errs := Nonpositive_step { var = l.var; step = l.step } :: !errs;
      List.iter
        (fun b ->
          if not (affine_in_loop_vars lvars b) then
            errs := Nonaffine_bound { var = l.var; bound = b } :: !errs)
        [ l.lo; l.hi ])
    t.levels;
  List.iter
    (fun g ->
      match g with
      | Ge p | Mod_eq (p, _) | Mod_ne (p, _) ->
          if not (affine_in_loop_vars lvars p) then
            errs := Nonaffine_guard p :: !errs;
          (match g with
          | Mod_eq (_, m) | Mod_ne (_, m) ->
              if m < 2 then errs := Bad_modulus m :: !errs
          | Ge _ -> ()))
    t.guards;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let pp_violation ppf = function
  | Nonaffine_bound { var; bound } ->
      Format.fprintf ppf "non-affine bound for %s: %a" var Poly.pp bound
  | Nonpositive_step { var; step } ->
      Format.fprintf ppf "non-positive step %d for %s" step var
  | Duplicate_var v -> Format.fprintf ppf "duplicate loop variable %s" v
  | Nonaffine_guard p -> Format.fprintf ppf "non-affine guard: %a" Poly.pp p
  | Bad_modulus m -> Format.fprintf ppf "modulus %d < 2" m

let pp ppf t =
  List.iter
    (fun l ->
      Format.fprintf ppf "for %s = %a .. %a step %d@." l.var Poly.pp l.lo
        Poly.pp l.hi l.step)
    t.levels;
  List.iter
    (fun g ->
      match g with
      | Ge p -> Format.fprintf ppf "subject to %a >= 0@." Poly.pp p
      | Mod_eq (p, m) -> Format.fprintf ppf "subject to %a ≡ 0 (mod %d)@." Poly.pp p m
      | Mod_ne (p, m) -> Format.fprintf ppf "subject to %a ≢ 0 (mod %d)@." Poly.pp p m)
    t.guards
