type t =
  | P of Poly.t
  | Add of t * t
  | Mul of t * t
  | Max of t * t
  | Min of t * t
  | Fdiv of t * int
  | Cdiv of t * int
  | If of Poly.t * t * t

let poly p = P p
let of_int n = P (Poly.of_int n)
let of_ratio q = P (Poly.const q)
let var x = P (Poly.var x)
let zero = of_int 0
let one = of_int 1
let to_poly = function P p -> Some p | _ -> None
let is_const = function P p -> Poly.to_const p | _ -> None

let is_zero = function P p -> Poly.is_zero p | _ -> false
let is_one = function
  | P p -> ( match Poly.to_const p with Some c -> Ratio.equal c Ratio.one | None -> false)
  | _ -> false

let rec add a b =
  match (a, b) with
  | P x, P y -> P (Poly.add x y)
  | _ when is_zero a -> b
  | _ when is_zero b -> a
  | If (g, t, f), e when to_poly e <> None -> If (g, add t e, add f e)
  | e, If (g, t, f) when to_poly e <> None -> If (g, add t e, add f e)
  | _ -> Add (a, b)

let rec mul a b =
  match (a, b) with
  | P x, P y -> P (Poly.mul x y)
  | _ when is_zero a || is_zero b -> zero
  | _ when is_one a -> b
  | _ when is_one b -> a
  | If (g, t, f), e when to_poly e <> None -> If (g, mul t e, mul f e)
  | e, If (g, t, f) when to_poly e <> None -> If (g, mul t e, mul f e)
  | _ -> Mul (a, b)

let neg a = mul (of_int (-1)) a
let sub a b = add a (neg b)

let compare_const a b =
  match (is_const a, is_const b) with
  | Some x, Some y -> Some (Ratio.compare x y)
  | _ -> None

(* Poly.t is a Map.Make tree: equal maps can have unequal internal
   shapes, so polymorphic (=) is wrong on anything containing one.
   Recurse structurally and compare polynomials with Poly.equal. *)
let rec equal a b =
  match (a, b) with
  | P x, P y -> Poly.equal x y
  | Add (a1, b1), Add (a2, b2)
  | Mul (a1, b1), Mul (a2, b2)
  | Max (a1, b1), Max (a2, b2)
  | Min (a1, b1), Min (a2, b2) ->
      equal a1 a2 && equal b1 b2
  | Fdiv (a1, n1), Fdiv (a2, n2) | Cdiv (a1, n1), Cdiv (a2, n2) ->
      n1 = n2 && equal a1 a2
  | If (g1, a1, b1), If (g2, a2, b2) ->
      Poly.equal g1 g2 && equal a1 a2 && equal b1 b2
  | (P _ | Add _ | Mul _ | Max _ | Min _ | Fdiv _ | Cdiv _ | If _), _ -> false

let max_ a b =
  if equal a b then a
  else
    match compare_const a b with
    | Some c -> if c >= 0 then a else b
    | None -> Max (a, b)

let min_ a b =
  if equal a b then a
  else
    match compare_const a b with
    | Some c -> if c <= 0 then a else b
    | None -> Min (a, b)

let fdiv a n =
  assert (n > 0);
  if n = 1 then a
  else
    match is_const a with
    | Some c -> of_int (Ratio.floor (Ratio.div c (Ratio.of_int n)))
    | None -> Fdiv (a, n)

let cdiv a n =
  assert (n > 0);
  if n = 1 then a
  else
    match is_const a with
    | Some c -> of_int (Ratio.ceil (Ratio.div c (Ratio.of_int n)))
    | None -> Cdiv (a, n)

let if_ g a b =
  match Poly.to_const g with
  | Some c -> if Ratio.sign c >= 0 then a else b
  | None -> if equal a b then a else If (g, a, b)

let clamp0 e =
  match is_const e with
  | Some c -> if Ratio.sign c >= 0 then e else zero
  | None -> (
      (* max(0, p): if p >= 0 then p else 0, expressed as a guard so it
         interacts with interval splitting. *)
      match e with P p -> If (p, e, zero) | _ -> max_ zero e)

let sum = List.fold_left add zero

let rec eval lookup = function
  | P p -> Poly.eval lookup p
  | Add (a, b) -> Ratio.add (eval lookup a) (eval lookup b)
  | Mul (a, b) -> Ratio.mul (eval lookup a) (eval lookup b)
  | Max (a, b) ->
      let x = eval lookup a and y = eval lookup b in
      if Ratio.compare x y >= 0 then x else y
  | Min (a, b) ->
      let x = eval lookup a and y = eval lookup b in
      if Ratio.compare x y <= 0 then x else y
  | Fdiv (a, n) -> Ratio.of_int (Ratio.floor (Ratio.div (eval lookup a) (Ratio.of_int n)))
  | Cdiv (a, n) -> Ratio.of_int (Ratio.ceil (Ratio.div (eval lookup a) (Ratio.of_int n)))
  | If (g, a, b) ->
      if Ratio.sign (Poly.eval lookup g) >= 0 then eval lookup a
      else eval lookup b

let eval_int lookup e =
  let q = eval (fun x -> Ratio.of_int (lookup x)) e in
  if Ratio.is_integer q then Ratio.to_int_exn q
  else
    (* Fractional counts only arise from annotation weights; round to
       nearest. *)
    int_of_float (Float.round (Ratio.to_float q))

let rec eval_float lookup = function
  | P p ->
      Poly.fold_terms
        (fun m c acc ->
          let v =
            List.fold_left
              (fun v (x, e) -> v *. (lookup x ** float_of_int e))
              (Ratio.to_float c) m
          in
          acc +. v)
        p 0.0
  | Add (a, b) -> eval_float lookup a +. eval_float lookup b
  | Mul (a, b) -> eval_float lookup a *. eval_float lookup b
  | Max (a, b) -> Float.max (eval_float lookup a) (eval_float lookup b)
  | Min (a, b) -> Float.min (eval_float lookup a) (eval_float lookup b)
  | Fdiv (a, n) -> Float.of_int (int_of_float (floor (eval_float lookup a /. float_of_int n)))
  | Cdiv (a, n) -> Float.of_int (int_of_float (ceil (eval_float lookup a /. float_of_int n)))
  | If (g, a, b) ->
      if eval_float lookup (P g) >= 0.0 then eval_float lookup a
      else eval_float lookup b

(* One set threaded through the whole tree; [S.add] of a present
   variable returns the set unchanged, so repeated leaves allocate
   nothing. *)
let vars e =
  let module S = Set.Make (String) in
  let add_poly acc p =
    Poly.fold_terms
      (fun m _ acc -> List.fold_left (fun s (x, _) -> S.add x s) acc m)
      p acc
  in
  let rec go acc = function
    | P p -> add_poly acc p
    | Add (a, b) | Mul (a, b) | Max (a, b) | Min (a, b) -> go (go acc a) b
    | Fdiv (a, _) | Cdiv (a, _) -> go acc a
    | If (g, a, b) -> go (go (add_poly acc g) a) b
  in
  S.elements (go S.empty e)

let rec pp ppf = function
  | P p -> Poly.pp ppf p
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Max (a, b) -> Format.fprintf ppf "max(%a, %a)" pp a pp b
  | Min (a, b) -> Format.fprintf ppf "min(%a, %a)" pp a pp b
  | Fdiv (a, n) -> Format.fprintf ppf "floor(%a / %d)" pp a n
  | Cdiv (a, n) -> Format.fprintf ppf "ceil(%a / %d)" pp a n
  | If (g, a, b) ->
      Format.fprintf ppf "(%a if %a >= 0 else %a)" pp a Poly.pp g pp b

let to_string e = Format.asprintf "%a" pp e

(* A single shared buffer keeps rendering linear in the output size;
   nesting sprintf calls instead re-copies every subexpression once
   per enclosing level, which is quadratic on the deep Min/Max/If
   towers dependent loop nests produce. *)
let to_python e =
  let b = Buffer.create 256 in
  let s = Buffer.add_string b in
  let rec go = function
    | P p -> Poly.add_python b p
    | Add (x, y) -> s "("; go x; s " + "; go y; s ")"
    | Mul (x, y) -> s "("; go x; s " * "; go y; s ")"
    | Max (x, y) -> s "max("; go x; s ", "; go y; s ")"
    | Min (x, y) -> s "min("; go x; s ", "; go y; s ")"
    | Fdiv (x, n) -> s "(("; go x; s (Printf.sprintf ") // %d)" n)
    | Cdiv (x, n) -> s "(-((-("; go x; s (Printf.sprintf ")) // %d))" n)
    | If (g, x, y) ->
        s "(";
        go x;
        s " if (";
        Poly.add_python b g;
        s ") >= 0 else ";
        go y;
        s ")"
  in
  go e;
  Buffer.contents b
