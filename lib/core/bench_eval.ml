(* Eval-layer microbenchmark: the tree-walking interpreter vs the
   compiled register program, swept over one variable.  The numbers go
   to BENCH_eval.json; correctness is the differential suite's job,
   but each run still cross-checks a sample of points so a benchmark
   of a wrong evaluator is impossible. *)

type target = {
  tg_label : string;
  tg_source_name : string;
  tg_source : string;
  tg_fname : string;
  tg_sweep : string;  (* the swept parameter *)
  tg_lo : int;
  tg_hi : int;
  tg_fixed : (string * int) list;
}

type result = {
  br_label : string;
  br_fname : string;
  br_points : int;
  br_interpreted_ns : float;
  br_compiled_ns : float;
  br_compiled_eps : float;
  br_speedup : float;
  br_prog_ops : int;
  br_max_rel_err : float;
}

let default_min_time_s = 0.5

(* A float the loops must produce, so no measured work can be hoisted
   or dropped. *)
let sink = ref 0.0

(* Run [pass] (one full sweep) repeatedly, doubling the pass count
   until the measured span exceeds [min_time_s]; seconds per pass. *)
let calibrated ~min_time_s pass =
  let rec go n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      pass ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time_s || n > 1_000_000_000 then dt /. float_of_int n
    else go (n * 2)
  in
  go 1

let rel_err a b =
  Float.abs (a -. b) /. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let run ?(min_time_s = default_min_time_s) ?(verify_points = 20) t =
  let model = (Mira.analyze ~source_name:t.tg_source_name t.tg_source).model in
  let points = t.tg_hi - t.tg_lo + 1 in
  if points <= 0 then invalid_arg "Bench_eval.run: empty sweep";
  (* the compiled program: fixed parameters folded away, one input *)
  let prog =
    Model_compile.compile model ~fname:t.tg_fname ~sweep:[ t.tg_sweep ]
      ~fixed:t.tg_fixed
  in
  let runner = Model_compile.runner prog in
  let args = [| 0 |] in
  (* cross-check a sample before timing anything *)
  let max_err = ref 0.0 in
  for k = 0 to verify_points - 1 do
    let v = t.tg_lo + (k * max 1 (points / max 1 verify_points)) in
    let v = min v t.tg_hi in
    let env = (t.tg_sweep, v) :: t.tg_fixed in
    let interp = Model_eval.eval model ~fname:t.tg_fname ~env in
    let comp = Model_compile.eval prog ~env in
    List.iter2
      (fun (mn, a) (mn', b) ->
        if mn <> mn' then
          failwith ("Bench_eval: mnemonic order diverged at " ^ mn);
        max_err := Float.max !max_err (rel_err a b))
      comp interp;
    if !max_err > 1e-6 then
      failwith
        (Printf.sprintf "Bench_eval: %s diverges at %s=%d (rel err %g)"
           t.tg_fname t.tg_sweep v !max_err)
  done;
  (* 1. the interpreter: one tree walk per eval *)
  let interpreted_pass () =
    let acc = ref 0.0 in
    for v = t.tg_lo to t.tg_hi do
      let counts =
        Model_eval.eval model ~fname:t.tg_fname
          ~env:((t.tg_sweep, v) :: t.tg_fixed)
      in
      acc := !acc +. snd (List.hd counts)
    done;
    sink := !sink +. !acc
  in
  (* 2. the register program *)
  let compiled_pass () =
    let acc = ref 0.0 in
    for v = t.tg_lo to t.tg_hi do
      args.(0) <- v;
      let out = Model_compile.run runner args in
      acc := !acc +. Array.unsafe_get out 0
    done;
    sink := !sink +. !acc
  in
  let fpoints = float_of_int points in
  (* each tier starts from a collected heap, so the interpreter's
     garbage is not collected on the compiled tier's clock *)
  let per_eval pass =
    Gc.full_major ();
    calibrated ~min_time_s pass /. fpoints
  in
  let interpreted_s = per_eval interpreted_pass in
  let compiled_s = per_eval compiled_pass in
  {
    br_label = t.tg_label;
    br_fname = t.tg_fname;
    br_points = points;
    br_interpreted_ns = interpreted_s *. 1e9;
    br_compiled_ns = compiled_s *. 1e9;
    br_compiled_eps = 1.0 /. compiled_s;
    br_speedup = interpreted_s /. compiled_s;
    br_prog_ops = Model_compile.n_ops prog;
    br_max_rel_err = !max_err;
  }
