open Mira_symexpr

let ratio_tests =
  let open Alcotest in
  [
    test_case "normalization" `Quick (fun () ->
        let q = Ratio.make 6 (-4) in
        check int "num" (-3) (Ratio.num q);
        check int "den" 2 (Ratio.den q));
    test_case "zero denominator rejected" `Quick (fun () ->
        check_raises "div by zero" Division_by_zero (fun () ->
            ignore (Ratio.make 1 0)));
    test_case "arithmetic" `Quick (fun () ->
        let a = Ratio.make 1 2 and b = Ratio.make 1 3 in
        check bool "1/2+1/3=5/6" true
          (Ratio.equal (Ratio.add a b) (Ratio.make 5 6));
        check bool "1/2*1/3=1/6" true
          (Ratio.equal (Ratio.mul a b) (Ratio.make 1 6));
        check bool "1/2-1/3=1/6" true
          (Ratio.equal (Ratio.sub a b) (Ratio.make 1 6));
        check bool "(1/2)/(1/3)=3/2" true
          (Ratio.equal (Ratio.div a b) (Ratio.make 3 2)));
    test_case "floor and ceil" `Quick (fun () ->
        check int "floor 7/2" 3 (Ratio.floor (Ratio.make 7 2));
        check int "ceil 7/2" 4 (Ratio.ceil (Ratio.make 7 2));
        check int "floor -7/2" (-4) (Ratio.floor (Ratio.make (-7) 2));
        check int "ceil -7/2" (-3) (Ratio.ceil (Ratio.make (-7) 2));
        check int "floor 4" 4 (Ratio.floor (Ratio.of_int 4));
        check int "ceil -4" (-4) (Ratio.ceil (Ratio.of_int (-4))));
    test_case "pow" `Quick (fun () ->
        check bool "(2/3)^3" true
          (Ratio.equal (Ratio.pow (Ratio.make 2 3) 3) (Ratio.make 8 27));
        check bool "q^0 = 1" true
          (Ratio.equal (Ratio.pow (Ratio.make 5 7) 0) Ratio.one));
    test_case "compare is total order" `Quick (fun () ->
        check bool "1/3 < 1/2" true
          (Ratio.compare (Ratio.make 1 3) (Ratio.make 1 2) < 0);
        check bool "-1/2 < 1/3" true
          (Ratio.compare (Ratio.make (-1) 2) (Ratio.make 1 3) < 0));
  ]

let ratio_props =
  let gen =
    QCheck.map
      (fun (n, d) -> Ratio.make n (if d = 0 then 1 else d))
      QCheck.(pair (int_range (-1000) 1000) (int_range (-50) 50))
  in
  let gen = QCheck.set_print Ratio.to_string gen in
  [
    QCheck.Test.make ~name:"add commutative" ~count:200 (QCheck.pair gen gen)
      (fun (a, b) -> Ratio.equal (Ratio.add a b) (Ratio.add b a));
    QCheck.Test.make ~name:"mul distributes over add" ~count:200
      (QCheck.triple gen gen gen) (fun (a, b, c) ->
        Ratio.equal
          (Ratio.mul a (Ratio.add b c))
          (Ratio.add (Ratio.mul a b) (Ratio.mul a c)));
    QCheck.Test.make ~name:"floor <= value <= ceil" ~count:200 gen (fun q ->
        let f = Ratio.floor q and c = Ratio.ceil q in
        Ratio.compare (Ratio.of_int f) q <= 0
        && Ratio.compare q (Ratio.of_int c) <= 0
        && c - f <= 1);
    QCheck.Test.make ~name:"canonical form" ~count:200 gen (fun q ->
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        Ratio.den q > 0 && gcd (abs (Ratio.num q)) (Ratio.den q) <= 1);
  ]

let p_of_int = Poly.of_int
let x = Poly.var "x"
let y = Poly.var "y"

let poly_tests =
  let open Alcotest in
  [
    test_case "construction and equality" `Quick (fun () ->
        let a = Poly.add x y and b = Poly.add y x in
        check bool "x+y = y+x" true (Poly.equal a b);
        check bool "x+y <> x" false (Poly.equal a x));
    test_case "zero coefficients vanish" `Quick (fun () ->
        let p = Poly.sub (Poly.add x y) (Poly.add x y) in
        check bool "is zero" true (Poly.is_zero p));
    test_case "to_const" `Quick (fun () ->
        check bool "const 5" true
          (match Poly.to_const (p_of_int 5) with
          | Some c -> Ratio.equal c (Ratio.of_int 5)
          | None -> false);
        check bool "x not const" true (Poly.to_const x = None));
    test_case "degree" `Quick (fun () ->
        let p = Poly.add (Poly.mul x (Poly.mul x y)) y in
        check int "total degree" 3 (Poly.degree p);
        check int "degree in x" 2 (Poly.degree_in "x" p);
        check int "degree in y" 1 (Poly.degree_in "y" p);
        check int "degree in z" 0 (Poly.degree_in "z" p));
    test_case "vars" `Quick (fun () ->
        let p = Poly.add (Poly.mul x y) (p_of_int 3) in
        check (list string) "vars" [ "x"; "y" ] (Poly.vars p));
    test_case "subst" `Quick (fun () ->
        (* (x+1)^2 with x := y-1 gives y^2 *)
        let p = Poly.pow (Poly.add x Poly.one) 2 in
        let q = Poly.subst "x" (Poly.sub y Poly.one) p in
        check bool "y^2" true (Poly.equal q (Poly.pow y 2)));
    test_case "coeffs_in" `Quick (fun () ->
        (* 3x^2 + xy + 5 *)
        let p =
          Poly.sum
            [ Poly.scale (Ratio.of_int 3) (Poly.pow x 2); Poly.mul x y; p_of_int 5 ]
        in
        let cs = Poly.coeffs_in "x" p in
        check int "length" 3 (Array.length cs);
        check bool "c0" true (Poly.equal cs.(0) (p_of_int 5));
        check bool "c1" true (Poly.equal cs.(1) y);
        check bool "c2" true (Poly.equal cs.(2) (p_of_int 3)));
    test_case "eval" `Quick (fun () ->
        let p = Poly.add (Poly.mul x y) (p_of_int 1) in
        let v = Poly.eval (function
          | "x" -> Ratio.of_int 3
          | "y" -> Ratio.of_int 4
          | _ -> assert false) p
        in
        check bool "3*4+1" true (Ratio.equal v (Ratio.of_int 13)));
    test_case "pretty printing" `Quick (fun () ->
        let p = Poly.sub (Poly.scale (Ratio.of_int 2) (Poly.pow x 2)) y in
        check string "print" "2*x^2 - y" (Poly.to_string p));
    test_case "python rendering integer-valued" `Quick (fun () ->
        (* n(n+1)/2 renders with a common denominator and // *)
        let n = Poly.var "n" in
        let p = Poly.scale (Ratio.make 1 2) (Poly.mul n (Poly.add n Poly.one)) in
        let s = Poly.to_python p in
        check bool "has //2" true
          (String.length s > 3 && String.sub s (String.length s - 3) 3 = "//2"));
  ]

let poly_gen =
  (* Random polynomials in x, y with small integer coefficients. *)
  let open QCheck.Gen in
  let term =
    map3
      (fun c ex ey ->
        Poly.scale (Ratio.of_int c)
          (Poly.mul (Poly.pow x ex) (Poly.pow y ey)))
      (int_range (-5) 5) (int_range 0 3) (int_range 0 3)
  in
  map Poly.sum (list_size (int_range 0 5) term)

let poly_arb = QCheck.make ~print:Poly.to_string poly_gen

let poly_props =
  let eval_at a b p =
    Poly.eval
      (function "x" -> Ratio.of_int a | "y" -> Ratio.of_int b | _ -> assert false)
      p
  in
  [
    QCheck.Test.make ~name:"poly ring: eval homomorphism (add)" ~count:100
      (QCheck.pair poly_arb poly_arb) (fun (p, q) ->
        Ratio.equal
          (eval_at 3 5 (Poly.add p q))
          (Ratio.add (eval_at 3 5 p) (eval_at 3 5 q)));
    QCheck.Test.make ~name:"poly ring: eval homomorphism (mul)" ~count:100
      (QCheck.pair poly_arb poly_arb) (fun (p, q) ->
        Ratio.equal
          (eval_at 2 (-3) (Poly.mul p q))
          (Ratio.mul (eval_at 2 (-3) p) (eval_at 2 (-3) q)));
    QCheck.Test.make ~name:"subst then eval = eval extended" ~count:100
      poly_arb (fun p ->
        let q = Poly.subst "x" (Poly.add y Poly.one) p in
        Ratio.equal (eval_at 99 4 q)
          (eval_at 5 4 p)
        |> fun _ ->
        (* x := y+1 at y=4 means x=5; q must not mention x. *)
        Poly.degree_in "x" q = 0
        && Ratio.equal
             (Poly.eval
                (function "y" -> Ratio.of_int 4 | _ -> assert false)
                q)
             (eval_at 5 4 p));
  ]

let faulhaber_tests =
  let open Alcotest in
  let brute k n =
    let s = ref 0 in
    for i = 1 to n do
      s := !s + int_of_float (float_of_int i ** float_of_int k)
    done;
    !s
  in
  [
    test_case "bernoulli numbers" `Quick (fun () ->
        check bool "B0" true (Ratio.equal (Faulhaber.bernoulli 0) Ratio.one);
        check bool "B1 = 1/2 (plus convention)" true
          (Ratio.equal (Faulhaber.bernoulli 1) (Ratio.make 1 2));
        check bool "B2 = 1/6" true
          (Ratio.equal (Faulhaber.bernoulli 2) (Ratio.make 1 6));
        check bool "B3 = 0" true (Ratio.is_zero (Faulhaber.bernoulli 3));
        check bool "B4 = -1/30" true
          (Ratio.equal (Faulhaber.bernoulli 4) (Ratio.make (-1) 30)));
    test_case "power sums match brute force" `Quick (fun () ->
        for k = 0 to 5 do
          for n = 0 to 12 do
            let p = Faulhaber.power_sum k in
            let v =
              Poly.eval
                (function "n" -> Ratio.of_int n | _ -> assert false)
                p
            in
            check int
              (Printf.sprintf "S_%d(%d)" k n)
              (brute k n) (Ratio.to_int_exn v)
          done
        done);
    test_case "sum_range triangular" `Quick (fun () ->
        (* sum_{j=i+1}^{6} 1 = 6 - i, then summed over i elsewhere *)
        let i = Poly.var "i" in
        let s =
          Faulhaber.sum_range "j" ~lo:(Poly.add i Poly.one) ~hi:(p_of_int 6)
            Poly.one
        in
        check bool "6 - i" true (Poly.equal s (Poly.sub (p_of_int 6) i)));
    test_case "sum_range rejects bad bounds" `Quick (fun () ->
        check_raises "bound mentions var"
          (Invalid_argument
             "Faulhaber.sum_range: bounds mention the summation variable")
          (fun () -> ignore (Faulhaber.sum_range "j" ~lo:(Poly.var "j") ~hi:(p_of_int 3) Poly.one)));
  ]

let faulhaber_props =
  [
    QCheck.Test.make ~name:"sum_range equals brute force" ~count:200
      QCheck.(
        triple (int_range (-8) 8) (int_range (-8) 20)
          (pair (int_range 0 4) (int_range (-4) 4)))
      (fun (lo, span, (k, c)) ->
        let hi = lo + abs span in
        let p = Poly.scale (Ratio.of_int c) (Poly.pow x k) in
        let s = Faulhaber.sum_range "x" ~lo:(p_of_int lo) ~hi:(p_of_int hi) p in
        let brute = ref Ratio.zero in
        for i = lo to hi do
          brute :=
            Ratio.add !brute
              (Poly.eval
                 (function "x" -> Ratio.of_int i | _ -> assert false)
                 p)
        done;
        match Poly.to_const s with
        | Some v -> Ratio.equal v !brute
        | None -> false);
  ]

let expr_tests =
  let open Alcotest in
  let ev env e = Expr.eval_int (fun v -> List.assoc v env) e in
  [
    test_case "polynomial folding" `Quick (fun () ->
        let e = Expr.add (Expr.var "n") (Expr.of_int 2) in
        check bool "folds to poly" true (Expr.to_poly e <> None));
    test_case "max/min of constants fold" `Quick (fun () ->
        check bool "max" true
          (Expr.equal (Expr.max_ (Expr.of_int 3) (Expr.of_int 5)) (Expr.of_int 5));
        check bool "min" true
          (Expr.equal (Expr.min_ (Expr.of_int 3) (Expr.of_int 5)) (Expr.of_int 3)));
    test_case "fdiv/cdiv" `Quick (fun () ->
        check int "fdiv" 2 (ev [] (Expr.fdiv (Expr.of_int 7) 3));
        check int "cdiv" 3 (ev [] (Expr.cdiv (Expr.of_int 7) 3));
        check int "fdiv neg" (-3) (ev [] (Expr.fdiv (Expr.of_int (-7)) 3));
        check int "symbolic fdiv" 4
          (ev [ ("n", 13) ] (Expr.fdiv (Expr.var "n") 3)));
    test_case "clamp0" `Quick (fun () ->
        let e = Expr.clamp0 (Expr.sub (Expr.var "n") (Expr.of_int 5)) in
        check int "clamped" 0 (ev [ ("n", 3) ] e);
        check int "passes" 4 (ev [ ("n", 9) ] e));
    test_case "if guard" `Quick (fun () ->
        let g = Poly.sub (Poly.var "n") (p_of_int 10) in
        let e = Expr.if_ g (Expr.of_int 1) (Expr.of_int 2) in
        check int "n=10 true" 1 (ev [ ("n", 10) ] e);
        check int "n=9 false" 2 (ev [ ("n", 9) ] e));
    test_case "eval_float matches eval on ints" `Quick (fun () ->
        let e =
          Expr.add
            (Expr.mul (Expr.var "n") (Expr.var "m"))
            (Expr.max_ (Expr.var "n") (Expr.var "m"))
        in
        let i = ev [ ("n", 7); ("m", 4) ] e in
        let f =
          Expr.eval_float
            (function "n" -> 7.0 | "m" -> 4.0 | _ -> assert false)
            e
        in
        check (float 1e-9) "agree" (float_of_int i) f);
    test_case "python rendering" `Quick (fun () ->
        let e = Expr.max_ (Expr.var "n") (Expr.of_int 0) in
        check string "max" "max(n, 0)" (Expr.to_python e));
    test_case "vars" `Quick (fun () ->
        let e = Expr.if_ (Poly.var "p") (Expr.var "a") (Expr.var "b") in
        check (list string) "vars" [ "a"; "b"; "p" ] (Expr.vars e));
  ]

(* ---------- randomized algebraic identities (bulk suites) ----------

   The heavier property suites behind the symbolic layer: ring laws
   for Poly, Faulhaber power sums against brute-force summation, and
   Expr's simplifying smart constructors against a reference
   interpreter — ~1000 seeded cases each. *)

let poly_point_arb =
  QCheck.make
    ~print:(fun (p, (a, b)) ->
      Printf.sprintf "%s at x=%d, y=%d" (Poly.to_string p) a b)
    QCheck.Gen.(pair poly_gen (pair (int_range (-9) 9) (int_range (-9) 9)))

let eval_xy a b p =
  Poly.eval
    (function "x" -> Ratio.of_int a | "y" -> Ratio.of_int b | _ -> assert false)
    p

let poly_ring_props =
  let triple_arb =
    QCheck.make
      ~print:(fun ((p, q, r), _) ->
        String.concat " | " (List.map Poly.to_string [ p; q; r ]))
      QCheck.Gen.(
        pair (triple poly_gen poly_gen poly_gen)
          (pair (int_range (-9) 9) (int_range (-9) 9)))
  in
  let at (a, b) p = eval_xy a b p in
  [
    QCheck.Test.make ~name:"ring: add commutative" ~count:1000
      (QCheck.pair poly_arb poly_arb) (fun (p, q) ->
        Poly.equal (Poly.add p q) (Poly.add q p));
    QCheck.Test.make ~name:"ring: mul commutative" ~count:1000
      (QCheck.pair poly_arb poly_arb) (fun (p, q) ->
        Poly.equal (Poly.mul p q) (Poly.mul q p));
    QCheck.Test.make ~name:"ring: add associative" ~count:1000 triple_arb
      (fun ((p, q, r), _) ->
        Poly.equal (Poly.add p (Poly.add q r)) (Poly.add (Poly.add p q) r));
    QCheck.Test.make ~name:"ring: mul associative" ~count:1000 triple_arb
      (fun ((p, q, r), _) ->
        Poly.equal (Poly.mul p (Poly.mul q r)) (Poly.mul (Poly.mul p q) r));
    QCheck.Test.make ~name:"ring: mul distributes over add" ~count:1000
      triple_arb (fun ((p, q, r), _) ->
        Poly.equal
          (Poly.mul p (Poly.add q r))
          (Poly.add (Poly.mul p q) (Poly.mul p r)));
    QCheck.Test.make ~name:"ring: identities and inverses" ~count:1000
      poly_arb (fun p ->
        Poly.equal (Poly.add p Poly.zero) p
        && Poly.equal (Poly.mul p Poly.one) p
        && Poly.is_zero (Poly.sub p p)
        && Poly.is_zero (Poly.mul p Poly.zero));
    QCheck.Test.make ~name:"ring laws hold under evaluation too" ~count:1000
      triple_arb (fun ((p, q, r), pt) ->
        Ratio.equal
          (at pt (Poly.mul p (Poly.add q r)))
          (Ratio.add (at pt (Poly.mul p q)) (at pt (Poly.mul p r))));
    QCheck.Test.make ~name:"pow n is repeated mul" ~count:1000
      (QCheck.pair poly_point_arb (QCheck.int_range 0 4))
      (fun ((p, (a, b)), n) ->
        let rec rep i acc = if i = 0 then acc else rep (i - 1) (Poly.mul acc p) in
        Ratio.equal (eval_xy a b (Poly.pow p n)) (eval_xy a b (rep n Poly.one)));
  ]

let faulhaber_bulk_props =
  let brute k n =
    (* integer i^k summed 1..n *)
    let pow_int i k =
      let rec go acc j = if j = 0 then acc else go (acc * i) (j - 1) in
      go 1 k
    in
    let s = ref 0 in
    for i = 1 to n do
      s := !s + pow_int i k
    done;
    !s
  in
  [
    QCheck.Test.make ~name:"power_sum k<=4 equals brute-force summation"
      ~count:1000
      QCheck.(pair (int_range 0 4) (int_range 0 80))
      (fun (k, n) ->
        let v =
          Poly.eval
            (function "n" -> Ratio.of_int n | _ -> assert false)
            (Faulhaber.power_sum k)
        in
        Ratio.to_int_exn v = brute k n);
    QCheck.Test.make ~name:"power_sum telescopes: S_k(n) - S_k(n-1) = n^k"
      ~count:1000
      QCheck.(pair (int_range 0 4) (int_range 1 80))
      (fun (k, n) ->
        brute k n - brute k (n - 1)
        = int_of_float (float_of_int n ** float_of_int k));
  ]

(* A reference interpreter for expression descriptions: [build] maps a
   description through Expr's simplifying smart constructors, [ref_eval]
   interprets the same description naively.  Agreement means
   simplify-then-eval = eval. *)
type expr_desc =
  | DConst of int
  | DVar of string
  | DAdd of expr_desc * expr_desc
  | DSub of expr_desc * expr_desc
  | DMul of expr_desc * expr_desc
  | DMax of expr_desc * expr_desc
  | DMin of expr_desc * expr_desc
  | DFdiv of expr_desc * int
  | DCdiv of expr_desc * int
  | DIf of (int * int * int) * expr_desc * expr_desc
      (* guard c0 + c1*x + c2*y >= 0 *)

let rec build = function
  | DConst c -> Expr.of_int c
  | DVar v -> Expr.var v
  | DAdd (a, b) -> Expr.add (build a) (build b)
  | DSub (a, b) -> Expr.sub (build a) (build b)
  | DMul (a, b) -> Expr.mul (build a) (build b)
  | DMax (a, b) -> Expr.max_ (build a) (build b)
  | DMin (a, b) -> Expr.min_ (build a) (build b)
  | DFdiv (a, n) -> Expr.fdiv (build a) n
  | DCdiv (a, n) -> Expr.cdiv (build a) n
  | DIf ((c0, c1, c2), a, b) ->
      let g =
        Poly.sum
          [
            p_of_int c0;
            Poly.scale (Ratio.of_int c1) x;
            Poly.scale (Ratio.of_int c2) y;
          ]
      in
      Expr.if_ g (build a) (build b)

let rec ref_eval vx vy = function
  | DConst c -> c
  | DVar "x" -> vx
  | DVar "y" -> vy
  | DVar _ -> assert false
  | DAdd (a, b) -> ref_eval vx vy a + ref_eval vx vy b
  | DSub (a, b) -> ref_eval vx vy a - ref_eval vx vy b
  | DMul (a, b) -> ref_eval vx vy a * ref_eval vx vy b
  | DMax (a, b) -> max (ref_eval vx vy a) (ref_eval vx vy b)
  | DMin (a, b) -> min (ref_eval vx vy a) (ref_eval vx vy b)
  | DFdiv (a, n) ->
      let v = ref_eval vx vy a in
      if v >= 0 then v / n else -((-v + n - 1) / n)
  | DCdiv (a, n) ->
      let v = ref_eval vx vy a in
      if v >= 0 then (v + n - 1) / n else -(-v / n)
  | DIf ((c0, c1, c2), a, b) ->
      if c0 + (c1 * vx) + (c2 * vy) >= 0 then ref_eval vx vy a
      else ref_eval vx vy b

let expr_desc_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun c -> DConst c) (int_range (-8) 8);
        oneofl [ DVar "x"; DVar "y" ];
      ]
  in
  let coef = int_range (-3) 3 in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        frequency
          [
            (1, leaf);
            (2, map2 (fun a b -> DAdd (a, b)) sub sub);
            (2, map2 (fun a b -> DSub (a, b)) sub sub);
            (2, map2 (fun a b -> DMul (a, b)) sub sub);
            (1, map2 (fun a b -> DMax (a, b)) sub sub);
            (1, map2 (fun a b -> DMin (a, b)) sub sub);
            (1, map2 (fun a n -> DFdiv (a, n)) sub (int_range 1 5));
            (1, map2 (fun a n -> DCdiv (a, n)) sub (int_range 1 5));
            ( 1,
              map3
                (fun g a b -> DIf (g, a, b))
                (triple coef coef coef) sub sub );
          ])
    3

let rec desc_to_string = function
  | DConst c -> string_of_int c
  | DVar v -> v
  | DAdd (a, b) -> Printf.sprintf "(%s + %s)" (desc_to_string a) (desc_to_string b)
  | DSub (a, b) -> Printf.sprintf "(%s - %s)" (desc_to_string a) (desc_to_string b)
  | DMul (a, b) -> Printf.sprintf "(%s * %s)" (desc_to_string a) (desc_to_string b)
  | DMax (a, b) -> Printf.sprintf "max(%s, %s)" (desc_to_string a) (desc_to_string b)
  | DMin (a, b) -> Printf.sprintf "min(%s, %s)" (desc_to_string a) (desc_to_string b)
  | DFdiv (a, n) -> Printf.sprintf "floor(%s / %d)" (desc_to_string a) n
  | DCdiv (a, n) -> Printf.sprintf "ceil(%s / %d)" (desc_to_string a) n
  | DIf ((c0, c1, c2), a, b) ->
      Printf.sprintf "if(%d+%d*x+%d*y >= 0, %s, %s)" c0 c1 c2
        (desc_to_string a) (desc_to_string b)

let expr_simplify_props =
  let arb =
    QCheck.make
      ~print:(fun (d, (vx, vy)) ->
        Printf.sprintf "%s at x=%d, y=%d" (desc_to_string d) vx vy)
      QCheck.Gen.(
        pair expr_desc_gen (pair (int_range (-12) 12) (int_range (-12) 12)))
  in
  [
    QCheck.Test.make ~name:"smart constructors: simplify-then-eval = eval"
      ~count:1000 arb (fun (d, (vx, vy)) ->
        let e = build d in
        let env = function "x" -> vx | "y" -> vy | _ -> assert false in
        Expr.eval_int env e = ref_eval vx vy d);
    QCheck.Test.make ~name:"eval_float agrees with eval_int after building"
      ~count:1000 arb (fun (d, (vx, vy)) ->
        let e = build d in
        let fenv = function
          | "x" -> float_of_int vx
          | "y" -> float_of_int vy
          | _ -> assert false
        in
        Float.abs
          (Expr.eval_float fenv e -. float_of_int (ref_eval vx vy d))
        < 1e-6);
  ]

(* [Expr.vars] as it was first written: a set per node, turned into a
   list through [Poly.vars] at every leaf.  The one-set version must
   agree with it. *)
let reference_vars e =
  let module S = Set.Make (String) in
  let rec go acc (e : Expr.t) =
    match e with
    | P p -> List.fold_left (fun s x -> S.add x s) acc (Poly.vars p)
    | Add (a, b) | Mul (a, b) | Max (a, b) | Min (a, b) -> go (go acc a) b
    | Fdiv (a, _) | Cdiv (a, _) -> go acc a
    | If (g, a, b) ->
        let acc = List.fold_left (fun s x -> S.add x s) acc (Poly.vars g) in
        go (go acc a) b
  in
  S.elements (go S.empty e)

let expr_vars_props =
  let open QCheck.Gen in
  let poly =
    (* sums of small monomials over a wider variable pool, so leaves
       and guards bring in overlapping and distinct names *)
    let var = oneofl [ "a"; "b"; "n"; "x"; "y"; "z" ] in
    let term =
      map3
        (fun c v e -> Poly.scale (Ratio.of_int c) (Poly.pow (Poly.var v) e))
        (int_range (-3) 3) var (int_range 0 2)
    in
    map Poly.sum (list_size (int_range 0 3) term)
  in
  let gen =
    fix
      (fun self depth ->
        if depth = 0 then map Expr.poly poly
        else
          let sub = self (depth - 1) in
          frequency
            [
              (1, map Expr.poly poly);
              (2, map2 Expr.add sub sub);
              (2, map2 Expr.mul sub sub);
              (1, map2 Expr.max_ sub sub);
              (1, map2 Expr.min_ sub sub);
              (1, map2 Expr.fdiv sub (int_range 1 4));
              (1, map2 Expr.cdiv sub (int_range 1 4));
              (1, map3 Expr.if_ poly sub sub);
            ])
      4
  in
  [
    QCheck.Test.make ~name:"vars equals the reference definition"
      ~count:1000
      (QCheck.make ~print:Expr.to_string gen)
      (fun e -> Expr.vars e = reference_vars e);
  ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "symexpr"
    [
      ("ratio", ratio_tests);
      ("ratio-props", q ratio_props);
      ("poly", poly_tests);
      ("poly-props", q poly_props);
      ("poly-ring-props", q poly_ring_props);
      ("faulhaber", faulhaber_tests);
      ("faulhaber-props", q faulhaber_props);
      ("faulhaber-bulk-props", q faulhaber_bulk_props);
      ("expr", expr_tests);
      ("expr-simplify-props", q expr_simplify_props);
      ("expr-vars-props", q expr_vars_props);
    ]
