open Mira_symexpr

let eval_poly env p =
  Poly.eval
    (fun x ->
      match List.assoc_opt x env with
      | Some v -> Ratio.of_int v
      | None -> raise Not_found)
    p

(* Guards that only mention bound variables can be checked as soon as
   those variables are assigned; we re-check all of them at the leaf
   for simplicity (domains passed here are small or the check is
   cheap). *)
let guard_holds env = function
  | Domain.Ge p -> Ratio.sign (eval_poly env p) >= 0
  | Domain.Mod_eq (p, m) ->
      let v = Ratio.to_int_exn (eval_poly env p) in
      ((v mod m) + m) mod m = 0
  | Domain.Mod_ne (p, m) ->
      let v = Ratio.to_int_exn (eval_poly env p) in
      ((v mod m) + m) mod m <> 0

let guard_vars = function
  | Domain.Ge p | Domain.Mod_eq (p, _) | Domain.Mod_ne (p, _) -> Poly.vars p

let iter ~params (t : Domain.t) f =
  let n = List.length t.levels in
  let point = Array.make n 0 in
  (* Pre-split guards by the deepest level variable they mention, so
     each guard is checked as early as possible. *)
  let lvars = Domain.loop_vars t in
  let depth_of_guard g =
    let vs = guard_vars g in
    let rec deepest i best = function
      | [] -> best
      | v :: rest -> deepest (i + 1) (if List.mem v vs then i else best) rest
    in
    deepest 0 (-1) lvars
  in
  let guards_at = Array.make (n + 1) [] in
  List.iter
    (fun g ->
      let d = depth_of_guard g in
      let slot = if d < 0 then 0 else d + 1 in
      guards_at.(slot) <- g :: guards_at.(slot))
    t.guards;
  let rec go i env =
    if List.for_all (guard_holds env) guards_at.(i) then
      if i = n then f (Array.copy point)
      else
        let l = List.nth t.levels i in
        let lo = Ratio.ceil (eval_poly env l.lo) in
        let hi = Ratio.floor (eval_poly env l.hi) in
        let v = ref lo in
        while !v <= hi do
          (* a deferred count over a huge parameter must end at the
             caller's deadline, not run on; points burn no fuel *)
          Mira_limits.Budget.poll ();
          point.(i) <- !v;
          go (i + 1) ((l.var, !v) :: env);
          v := !v + l.step
        done
  in
  go 0 params

let count ~params t =
  let c = ref 0 in
  iter ~params t (fun _ -> incr c);
  !c

let points ~params t =
  let acc = ref [] in
  iter ~params t (fun p -> acc := p :: !acc);
  List.rev !acc
