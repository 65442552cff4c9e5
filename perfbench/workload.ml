(* What every workload gives the driver in [perfbench.ml]. *)

type instance = {
  op : int -> int;
      (** Run op [i] (closed loop: the driver calls it only after op
          [i - 1] returned).  Returns the op's work units; raises when
          the op fails or its output is wrong. *)
  probe : int -> unit;
      (** Untimed per-op extras of the traced run, after op [i]. *)
  trace_begin : unit -> unit;
  trace_end : unit -> unit;
  check : unit -> (int option * string) list;
      (** The untimed correctness gates, after the timed loop: each
          mismatch with the op it convicts ([None] for a once-per-run
          gate). *)
  extra_cpu_s : unit -> float;
      (** CPU seconds spent for this run outside this process. *)
  rss_pid : int;  (** the process doing the work, for [peak_rss_mb] *)
  diag : unit -> (string * Mira_core.Json.t) list;
      (** Drift diagnostics for the run's envelope; not metrics. *)
  close : unit -> unit;
}

type t = {
  name : string;
  why : string;  (** why the workload was chosen *)
  layers : string;  (** which layers it loads *)
  ops_per_s : float;
      (** Nominal rate: a run of [S] seconds makes [S * ops_per_s]
          ops, a count fixed by the arguments and not by the clock. *)
  unit_name : string;  (** what one work unit is *)
  setup : Common.cfg -> instance;
}

let no_extras =
  {
    op = (fun _ -> 0);
    probe = ignore;
    trace_begin = ignore;
    trace_end = ignore;
    check = (fun () -> []);
    extra_cpu_s = (fun () -> 0.0);
    rss_pid = Unix.getpid ();
    diag = (fun () -> []);
    close = ignore;
  }

(* Seeded Fisher-Yates shuffle. *)
let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let corpus_sources st =
  List.map
    (fun (name, text) ->
      { Mira_core.Batch.src_name = name ^ ".mc"; src_text = text })
    (shuffle st Mira_corpus.Corpus.all)

let rel_close ~tol a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
