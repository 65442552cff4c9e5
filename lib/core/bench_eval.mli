(** Eval-layer microbenchmark: sweep-throughput of the two evaluation
    tiers — the {!Model_eval.eval} tree walk and the {!Model_compile}
    register program — over one swept variable.  [mira bench-eval]
    renders the results into [BENCH_eval.json]; every run cross-checks
    a sample of sweep points against the interpreter first (failing
    loudly on divergence), so the recorded throughput is always that
    of a correct evaluator. *)

type target = {
  tg_label : string;  (** name recorded in the result *)
  tg_source_name : string;
  tg_source : string;  (** source text to analyze *)
  tg_fname : string;  (** mangled function name *)
  tg_sweep : string;  (** swept parameter *)
  tg_lo : int;
  tg_hi : int;  (** inclusive sweep range — one eval per value *)
  tg_fixed : (string * int) list;  (** remaining parameters *)
}

type result = {
  br_label : string;
  br_fname : string;
  br_points : int;  (** evals per pass *)
  br_interpreted_ns : float;  (** per-eval, tree walk *)
  br_compiled_ns : float;  (** per-eval, register program *)
  br_compiled_eps : float;  (** evals/second, register program *)
  br_speedup : float;  (** compiled over interpreted throughput *)
  br_prog_ops : int;  (** compiled program length *)
  br_max_rel_err : float;  (** observed in the verification sample *)
}

val default_min_time_s : float

val run : ?min_time_s:float -> ?verify_points:int -> target -> result
(** Measure one target.  Each tier's timing loop is calibrated: whole
    sweep passes are doubled until at least [min_time_s] (default
    0.5s) of work is measured.
    @raise Model_compile.Not_compilable when the target has no closed
    form (pick targets that do).
    @raise Failure when compiled and interpreted results diverge
    beyond 1e-6 relative tolerance. *)
