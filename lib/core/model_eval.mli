(** Evaluation of generated models (the OCaml twin of running the
    emitted Python), by a tree walk over the model.

    Given integer values for a function's model parameters, produces
    the predicted per-mnemonic instruction counts, inclusive of
    callees (call sites splice in callee evaluations times the call
    multiplicity, like the Python [handle_function_call]).  Counts are
    floats because [fraction] annotations scale contributions.

    Every entry point runs the same recursive walk: it folds a
    function's entries, evaluating each multiplicity under the
    caller's environment, binds each callee's parameters from the call
    site, and memoizes, within one evaluation, each function's result
    on its argument values.  Results are sorted assoc lists over
    {!mnemonic_order}, zero-weight mnemonics included.
    {!Model_compile} is the fast path for bulk evaluation; this module
    is its reference oracle. *)

exception Missing_parameter of string * string
(** function, parameter *)

val eval :
  Model_ir.t -> fname:string -> env:(string * int) list ->
  (string * float) list
(** Predicted mnemonic counts for one invocation of [fname].
    @raise Missing_parameter when [env] lacks a needed parameter.
    @raise Invalid_argument on unknown function names. *)

val eval_exclusive :
  Model_ir.t -> fname:string -> env:(string * int) list ->
  (string * float) list
(** Self counts: this function's own instructions only, callee bodies
    excluded (TAU's "self" column; call-site instruction sequences
    still count as the caller's own). *)

val eval_split :
  Model_ir.t -> fname:string -> env:(string * int) list ->
  (string * (float * float)) list
(** Like {!eval}, but splits each mnemonic's count into
    (serial, parallel) portions according to [{parallel:yes}] loop
    annotations — the input to shared-memory predictions. *)

val mnemonic_order : Model_ir.t -> fname:string -> inclusive:bool -> string array
(** The static sorted mnemonic universe evaluation of [fname] can
    touch: the union of Update count vectors over reachable functions
    (callees included iff [inclusive]). *)

(** {1 Aggregates} *)

val total : (string * float) list -> float

val count : (string * float) list -> string -> float
(** Count of one mnemonic (0 when absent). *)

val fp_mnemonics : string list
(** The mnemonics PAPI-style FP_INS counting covers. *)

val fpi : (string * float) list -> float
(** Floating-point instruction count — the paper's validation
    metric. *)

val fpi_vectorization_aware :
  Model_ir.t ->
  lanes:int ->
  vectorized:(string * int list) list ->
  fname:string ->
  env:(string * int) list ->
  float
(** Packed-aware FPI for binaries produced by a trip-count-changing
    vectorizer (the ablation-B correction): [vectorized] maps function
    names to the source lines whose loops were packed (from
    {!Mira_codegen.Vectorize.vectorized_lines}); packed instructions
    on those lines count [1/lanes] of the bridged estimate and the
    scalar remainder copies are dropped (they execute at most
    [lanes-1] times per loop entry). *)
