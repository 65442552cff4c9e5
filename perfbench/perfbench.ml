(* The benchmark driver: runs one named workload with a seed, checks
   its outputs and prints one result line.

     perfbench --workload W --seed N --seconds S --trace 0|1
               --mira PATH --out DIR [--git-rev REV]

   A run makes a fixed number of ops, S * (the workload's nominal
   rate) but at least 100, so two runs with the same arguments do the
   same work whatever the machine's speed.  Set-up (input generation,
   warm-up op, daemon start) is repeated [setups] times and [setup_s]
   is the median.  End-to-end times are given at a reference host
   speed, [nominal_ref_s]; see [timed_loop].  Untraced runs report the
   end-to-end metrics; traced runs time the first half of their ops
   untraced and the second half traced, and report the per-layer
   metrics plus the tracing overhead.
   Every run writes an envelope to DIR and prints
   [{"correct", "attempted", "failed", "metrics"}] as its last line. *)

open Mira_core

let workloads =
  [ W_analyze.workload; W_eval.workload; W_batch.workload; W_serve.workload ]

let setups = 3

(* ---------- metric definitions ---------- *)

(* A per-layer metric is the median over traced ops of a value read
   from that op's aggregate, or a value measured once per run. *)
type layer =
  | Per_op of string * (Trace.op_agg -> float)
  | Run of string  (** read from [Trace.run_values] *)

let ms span a = 1000.0 *. Trace.get a.Trace.self_s span
let cnt name a = Trace.get a.Trace.cnt name

let mb spans a =
  Common.words_to_mb
    (List.fold_left (fun acc s -> acc +. Trace.get a.Trace.self_words s) 0.0 spans)

let ratio num den a =
  let d = den a in
  if d = 0.0 then 0.0 else num a /. d

let per_layer =
  let t name unit f = (Per_op (name, f), unit) in
  [
    t "srclang.parse_ms" "ms" (ms "srclang.parse");
    t "codegen.fold_ms" "ms" (ms "codegen.fold");
    t "srclang.typecheck_ms" "ms" (ms "srclang.typecheck");
    t "srclang.fingerprint_ms" "ms" (ms "srclang.fingerprint");
    t "srclang.alloc_mb" "MB"
      (mb
         [
           "srclang.parse"; "codegen.fold"; "srclang.typecheck";
           "srclang.fingerprint";
         ]);
    t "codegen.compile_ms" "ms" (ms "codegen.compile");
    t "codegen.alloc_mb" "MB" (mb [ "codegen.compile" ]);
    t "visa.encode_ms" "ms" (ms "visa.encode");
    t "visa.decode_ms" "ms" (ms "visa.decode");
    t "visa.disasm_ms" "ms" (ms "visa.disasm");
    t "visa.object_bytes" "bytes" (cnt "visa.object_bytes");
    t "bridge.create_ms" "ms" (ms "bridge.create");
    t "bridge.instructions" "count" (cnt "bridge.instructions");
    t "metric_gen.part_ms" "ms" (ms "metric_gen.part");
    t "metric_gen.part_max_ms" "ms" (fun a ->
        1000.0 *. Trace.get a.Trace.max_s "metric_gen.part");
    t "metric_gen.assemble_ms" "ms" (ms "metric_gen.assemble");
    t "metric_gen.functions" "count" (cnt "metric_gen.functions");
    t "metric_gen.alloc_mb" "MB" (mb [ "metric_gen.part"; "metric_gen.assemble" ]);
    t "python_emit.emit_ms" "ms" (ms "python_emit.emit");
    t "python_emit.bytes" "bytes" (cnt "python_emit.bytes");
    t "model_compile.compile_ms" "ms" (ms "model_compile.compile");
    t "model_compile.run_ns_per_eval" "ns"
      (ratio (fun a -> 1e6 *. ms "model_compile.run" a) (cnt "model_compile.evals"));
    t "model_compile.prog_ops" "count" (cnt "model_compile.prog_ops");
    t "model_compile.targets" "count" (cnt "model_compile.targets");
    t "model_compile.not_compilable" "count" (cnt "model_compile.not_compilable");
    t "model_compile.alloc_mb" "MB" (mb [ "model_compile.compile" ]);
    t "model_eval.fallback_ms" "ms" (ms "model_eval.fallback");
    t "model_eval.fallback_evals" "count" (cnt "model_eval.fallback_evals");
    t "model_eval.check_ms" "ms" (ms "model_eval.check");
    t "batch.open_ms" "ms" (ms "batch.open");
    t "batch.entries_scanned" "count" (cnt "batch.entries_scanned");
    t "batch.run_ms" "ms" (ms "batch.run");
    t "batch.gc_ms" "ms" (ms "batch.gc");
    t "batch.disk_hits" "count" (cnt "batch.disk_hits");
    t "batch.fn_disk_hits" "count" (cnt "batch.fn_disk_hits");
    t "batch.fn_analyzed" "count" (cnt "batch.fn_analyzed");
    t "batch.fn_hit_ratio" "ratio"
      (ratio (cnt "batch.fn_disk_hits") (fun a ->
           cnt "batch.fn_disk_hits" a +. cnt "batch.fn_analyzed" a));
    t "batch.cache_mb" "MB" (cnt "batch.cache_mb");
    t "batch.io_retries" "count" (cnt "batch.io_retries");
    t "batch.corrupt" "count" (cnt "batch.corrupt");
    t "client.ping_rtt_ms" "ms" (ms "client.ping");
    t "client.eval_rtt_ms" "ms" (ms "client.eval");
    t "coordinator.run_ms" "ms" (ms "coordinator.run");
    t "coordinator.bindings" "count" (cnt "coordinator.bindings");
    t "coordinator.redispatched" "count" (cnt "coordinator.redispatched");
    t "coordinator.duplicates" "count" (cnt "coordinator.duplicates");
    (Run "serve.daemon_cpu_ms_per_op", "ms");
    (Run "serve.served", "count");
    (Run "serve.failed", "count");
    (Run "serve.shed", "count");
    (Run "serve.protocol_errors", "count");
    (Run "serve.compile_hits", "count");
    (Run "serve.compile_misses", "count");
    (Run "trace.op_p50_ms", "ms");
    (Run "trace.untraced_op_p50_ms", "ms");
    (Run "trace.overhead_ratio", "ratio");
  ]

(* ---------- the timed loop ---------- *)

(* The reference computation's time at the host speed that times are
   given at: about its time on a 2-vCPU Xeon (Sapphire Rapids) KVM
   guest in a fast phase, so times read close to the wall times of
   such a phase. *)
let nominal_ref_s = 0.0016

type loop = {
  wall : float array;  (** wall seconds per op *)
  scale : float array;
      (** per op, [nominal_ref_s] over the reference computation's time
          around it *)
  units : int;
  failed : (int * string) list;
  cpu : float;  (** CPU seconds of the ops, the reference excluded *)
  words : float array;  (** minor-heap words allocated per op *)
  rss : float array;  (** VmHWM of the working process during each op, MB *)
}

(* Median of [xs] over the window of [2 * r + 1] entries around [k]. *)
let window_median xs k r =
  let lo = max 0 (k - r) and hi = min (Array.length xs) (k + r + 1) in
  Common.median (Array.sub xs lo (hi - lo))

(* The peak resident set is read and reset after every op, so [rss.(k)]
   is the peak of op [k] alone: what set-up left behind and the heap's
   state at the first op do not decide the metric.  The reference
   computation runs after every op, outside the op's time, and each op
   is scaled by the median of the nine reference times around it: the
   host's phases last a second or more, and a single reference time is
   noisier than the median. *)
let timed_loop (inst : Workload.instance) ~first ~n =
  let wall = Array.make n 0.0 and words = Array.make n 0.0 in
  let rss = Array.make n 0.0 and refs = Array.make n 0.0 in
  let units = ref 0 and failed = ref [] in
  Common.reset_peak_rss inst.rss_pid;
  let cpu0 = Common.self_cpu_s () +. inst.extra_cpu_s () in
  for k = 0 to n - 1 do
    let i = first + k in
    Trace.current_op := i;
    let w0 = Common.minor_words () in
    let t0 = Common.now () in
    (match inst.op i with
    | u -> units := !units + u
    | exception e -> failed := (i, Printexc.to_string e) :: !failed);
    wall.(k) <- Common.now () -. t0;
    words.(k) <- Common.minor_words () -. w0;
    rss.(k) <- Common.peak_rss_mb inst.rss_pid;
    Common.reset_peak_rss inst.rss_pid;
    refs.(k) <- Common.reference_s ();
    if !Trace.enabled then
      try inst.probe i with e -> failed := (i, Printexc.to_string e) :: !failed
  done;
  let cpu = Common.self_cpu_s () +. inst.extra_cpu_s () -. cpu0 in
  {
    wall;
    scale = Array.init n (fun k -> nominal_ref_s /. window_median refs k 4);
    units = !units;
    failed = List.rev !failed;
    cpu = cpu -. Array.fold_left ( +. ) 0.0 refs;
    words;
    rss;
  }

(* Median op time of each tenth of the run, in ms: shows drift. *)
let p50_by_tenth wall =
  let n = Array.length wall in
  List.init (min 10 n) (fun k ->
      let lo = k * n / min 10 n and hi = (k + 1) * n / min 10 n in
      1000.0 *. Common.median (Array.sub wall lo (hi - lo)))

let half_ratio wall =
  let n = Array.length wall in
  let a = Array.sub wall 0 (n / 2) and b = Array.sub wall (n / 2) (n - (n / 2)) in
  Common.median b /. Common.median a

(* ---------- arguments ---------- *)

let () =
  let t_process = Common.now () in
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let mira = ref "" and out = ref "" in
  let git_rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--mira", Arg.Set_string mira, "PATH the built mira CLI");
      ("--out", Arg.Set_string out, "DIR where envelopes and traces go");
      ("--git-rev", Arg.Set_string git_rev, "REV");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 --mira PATH --out DIR";
  let w =
    match List.find_opt (fun w -> w.Workload.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !out = "" || !mira = "" then begin
    prerr_endline "perfbench: --out and --mira are required";
    exit 2
  end;
  let traced = !trace = 1 in
  let n_ops =
    max 100 (int_of_float (Float.round (float_of_int !seconds *. w.ops_per_s)))
  in
  let tmp = Filename.concat !out (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  Common.mkdir_p tmp;
  let cfg = { Common.seed = !seed; ops = n_ops; tmp; mira_exe = !mira } in
  let inst = ref None in
  let close () =
    match !inst with
    | None -> ()
    | Some (i : Workload.instance) ->
        inst := None;
        i.close ()
  in
  let finally () =
    close ();
    Common.rm_rf tmp
  in
  Fun.protect ~finally @@ fun () ->
  (* ---- set-up, [setups] times; the last instance is kept.  Nine
     reference times follow each, and all of them together scale the
     set-ups: right after one that wrote and fsynced files, a few are
     slow. ---- *)
  let setup_wall = Array.make setups 0.0 in
  let setup_refs =
    Array.concat
      (List.init setups (fun k ->
           close ();
           let t0 = if k = 0 then t_process else Common.now () in
           inst := Some (w.setup cfg);
           setup_wall.(k) <- Common.now () -. t0;
           Array.init 9 (fun _ -> Common.reference_s ())))
  in
  let inst = Option.get !inst in
  Gc.compact ();
  (* ---- timed ops ---- *)
  let n_plain = if traced then n_ops / 2 else n_ops in
  let plain = timed_loop inst ~first:0 ~n:n_plain in
  let traced_loop =
    if not traced then None
    else begin
      Trace.enabled := true;
      inst.trace_begin ();
      let l = timed_loop inst ~first:n_plain ~n:(n_ops - n_plain) in
      inst.trace_end ();
      Some l
    end
  in
  (* ---- correctness gates (spans of the traced run's checks count) ---- *)
  let gate = try inst.check () with e -> [ (None, Printexc.to_string e) ] in
  Trace.enabled := false;
  (* what needs the workload alive, then its orderly shutdown *)
  let diag = inst.diag () in
  let ref_ms = 1000.0 *. Common.median (Array.init 15 (fun _ -> Common.reference_s ())) in
  let gate =
    match close () with
    | () -> gate
    | exception e -> gate @ [ (None, "shutdown: " ^ Printexc.to_string e) ]
  in
  let loops = plain :: Option.to_list traced_loop in
  let failed_ops =
    List.sort_uniq compare
      (List.concat_map (fun l -> List.map fst l.failed) loops
      @ List.filter_map fst gate)
  in
  let run_level = List.length (List.filter (fun (o, _) -> o = None) gate) in
  let failures =
    List.concat_map (fun l -> List.map (fun (i, m) -> (Some i, m)) l.failed) loops
    @ gate
  in
  List.iter
    (fun (o, m) ->
      Printf.eprintf "perfbench: FAIL%s: %s\n%!"
        (match o with Some i -> Printf.sprintf " op %d" i | None -> "")
        m)
    failures;
  let attempted = n_ops + (if run_level > 0 then 1 else 0) in
  let failed = List.length failed_ops + (if run_level > 0 then 1 else 0) in
  (* ---- metrics ---- *)
  let p50 l = 1000.0 *. Common.median l.wall in
  let fn = float_of_int in
  let sum = Array.fold_left ( +. ) 0.0 in
  (* times at the reference speed *)
  let op_s = Array.map2 ( *. ) plain.wall plain.scale in
  let timed_s = sum op_s in
  let setup_s =
    Array.map (fun s -> s *. nominal_ref_s /. Common.median setup_refs) setup_wall
  in
  let end_to_end =
    [
      ("setup_s", Common.median setup_s, "s");
      ("op_p50_ms", 1000.0 *. Common.median op_s, "ms");
      ("op_p90_ms", 1000.0 *. Common.quantile 0.9 op_s, "ms");
      ("work_per_s", fn plain.units /. timed_s, "1/s");
      ( "cpu_ms_per_op",
        1000.0 *. plain.cpu *. (timed_s /. sum plain.wall) /. fn n_plain,
        "ms" );
      (* the median op's peak: a peak over the whole run is the resident
         set at the one moment the heap was largest, on serve_sweep
         often the first op, just after the daemon's warm-up *)
      ("peak_rss_mb", Common.median plain.rss, "MB");
      (* the median, as for time: on batch_edit the few edits that land
         in miniFE's heaviest functions allocate some 40 times what a
         typical edit does, by an amount that depends on the seeded
         literal, and would make the mean swing from seed to seed *)
      ("alloc_mb_per_op", Common.words_to_mb (Common.median plain.words), "MB");
    ]
  in
  let layer_values =
    match traced_loop with
    | None -> []
    | Some tl ->
        let put = Hashtbl.replace Trace.run_values in
        put "trace.op_p50_ms" (p50 tl);
        put "trace.untraced_op_p50_ms" (p50 plain);
        put "trace.overhead_ratio" (p50 tl /. p50 plain);
        let aggs = Array.of_list (Trace.per_op ~from:n_plain) in
        List.map
          (fun (l, unit) ->
            match l with
            | Per_op (name, f) -> (name, Common.median (Array.map f aggs), unit)
            | Run name -> (name, Trace.get Trace.run_values name, unit))
          per_layer
  in
  let metrics = if traced then layer_values else end_to_end in
  let json_of metrics =
    Json.Obj
      (List.map
         (fun (n, v, unit) ->
           (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
         metrics)
  in
  let correct = failures = [] in
  (* fail_ratio is 0 on a good run, so BENCHMARK.json cannot gate on
     it; the envelope carries it, and the result line carries the same
     count as failed/attempted *)
  let fail_ratio = ("fail_ratio", fn failed /. fn attempted, "ratio") in
  (* ---- the envelope ---- *)
  let stem = Printf.sprintf "%s-seed%d-trace%d" w.name !seed !trace in
  let envelope =
    Json.Obj
      [
        ("bench", Json.Str "perfbench");
        ("label", Json.Str stem);
        ("git_rev", Json.Str !git_rev);
        ("nproc", Json.Int (Common.online_cpus ()));
        ("cpus_usable", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("workload", Json.Str w.name);
        ("why", Json.Str w.why);
        ("layers", Json.Str w.layers);
        ("work_unit", Json.Str w.unit_name);
        ("seed", Json.Int !seed);
        ("ops", Json.Int n_ops);
        ("traced", Json.Bool traced);
        ( "setup_s_samples",
          Json.Arr (Array.to_list (Array.map (fun s -> Json.Float s) setup_s)) );
        ( "setup_wall_s_samples",
          Json.Arr (Array.to_list (Array.map (fun s -> Json.Float s) setup_wall)) );
        ( "diagnostics",
          Json.Obj
            (("reference_ms", Json.Float ref_ms)
            :: ("wall_op_p50_ms", Json.Float (p50 plain))
            :: ("wall_op_p90_ms", Json.Float (1000.0 *. Common.quantile 0.9 plain.wall))
            :: ("wall_work_per_s", Json.Float (fn plain.units /. sum plain.wall))
            :: ("wall_cpu_ms_per_op", Json.Float (1000.0 *. plain.cpu /. fn n_plain))
            :: ("second_half_over_first_half_p50", Json.Float (half_ratio plain.wall))
            :: ( "op_p50_by_tenth_ms",
                 Json.Arr (List.map (fun v -> Json.Float v) (p50_by_tenth plain.wall)) )
            :: diag) );
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", json_of (if traced then metrics else metrics @ [ fail_ratio ]));
      ]
  in
  Common.write_file (Filename.concat !out (stem ^ ".json")) (Json.to_string envelope);
  if traced then
    Common.write_file
      (Filename.concat !out (stem ^ ".trace.json"))
      (Trace.chrome_json ());
  Printf.printf "envelope: %s\n" (Json.to_string envelope);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", json_of metrics);
          ]))
