(* serve_sweep: the wire path.  Set-up starts the built
   `mira serve --workers 2 --cache` on a Unix socket as a child
   process, takes readiness from its "listening on" line and runs one
   warm-up sweep, so every source is analyzed and every program
   compiled before timing.  One op is [Coordinator.run] over that
   endpoint with [bindings] seeded bindings that cover every
   compilable parameterized corpus function.  Frame codec, event
   loop, worker hand-off, the daemon's cache lookups and the
   coordinator's merge do the work. *)

open Mira_core

let bindings = 128
let max_value = 100_000

type daemon = { pid : int; out : Unix.file_descr; ep : Endpoint.t }

(* Read the child's stdout until its ready line; no sleeps, no
   polling of the socket. *)
let wait_ready fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let deadline = Common.now () +. 60.0 in
  let rec go () =
    let contents = Buffer.contents buf in
    let ready =
      List.exists
        (String.starts_with ~prefix:"mira serve: listening on ")
        (String.split_on_char '\n' contents)
    in
    if ready then ()
    else
      let left = deadline -. Common.now () in
      if left <= 0.0 then failwith "daemon not ready within 60 s";
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith ("daemon exited before its ready line: " ^ contents)
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ())
  in
  go ()

let start_daemon (cfg : Common.cfg) dir =
  let sock = Filename.concat dir "d.sock" in
  let ep = Endpoint.Unix_sock sock in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile
      (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let argv =
    [|
      cfg.mira_exe; "serve"; "--endpoint"; Endpoint.to_string ep; "--workers";
      "2"; "--cache"; "--cache-dir"; Filename.concat dir "cache";
    |]
  in
  (* One malloc arena: with the default one per thread, how the daemon's
     domains happened to share out the warm-up's allocations set its
     resident size for the rest of the run, and peak_rss_mb spread by a
     quarter across runs (by a tenth with one arena).  The daemon runs
     on one CPU, so more arenas would not spare it any lock waits. *)
  let env = Array.append (Unix.environment ()) [| "MALLOC_ARENA_MAX=1" |] in
  let pid = Unix.create_process_env cfg.mira_exe argv env Unix.stdin out_w log in
  Unix.close out_w;
  Unix.close log;
  let d = { pid; out = out_r; ep } in
  (try wait_ready out_r
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     Unix.close out_r;
     raise e);
  d

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] d.pid in
  Unix.close d.out;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "daemon did not drain cleanly"

(* The stats verb's counters: body lines [key=value] plus the
   compile counters carried as header fields. *)
let stats pool =
  match Client.request pool Serve.Stats with
  | Ok r ->
      let body =
        List.filter_map
          (fun l ->
            match String.index_opt l '=' with
            | Some i ->
                Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
            | None -> None)
          (String.split_on_char '\n' r.Serve.rs_body)
      in
      fun k ->
        Option.fold ~none:0.0 ~some:float_of_string
          (List.assoc_opt k (r.rs_fields @ body))
  | Error e -> failwith ("stats: " ^ e)

type target = {
  tg_name : string;
  tg_text : string;
  tg_m : Mira.t;
  tg_fname : string;
  tg_params : string list;
}

let setups = ref 0

let setup (cfg : Common.cfg) =
  incr setups;
  let dir = Filename.concat cfg.tmp (Printf.sprintf "serve-%d" !setups) in
  Common.rm_rf dir;
  Common.mkdir_p dir;
  let targets =
    Array.of_list
      (List.concat_map
         (fun (name, text) ->
           let m = Mira.analyze ~source_name:(name ^ ".mc") text in
           List.filter_map
             (fun (f : Model_ir.fmodel) ->
               match Mira.parameters m ~fname:f.mf_name with
               | [] -> None
               | ps -> (
                   match
                     Model_compile.compile m.model ~fname:f.mf_name ~sweep:ps ~fixed:[]
                   with
                   | _ ->
                       Some
                         {
                           tg_name = name ^ ".mc";
                           tg_text = text;
                           tg_m = m;
                           tg_fname = f.mf_name;
                           tg_params = ps;
                         }
                   | exception Model_compile.Not_compilable _ -> None))
             m.model.functions)
         Mira_corpus.Corpus.all)
  in
  let nt = Array.length targets in
  let st = Common.rng cfg.seed "bindings" in
  (* op -1 is the warm-up sweep *)
  let sweeps =
    Array.init (cfg.ops + 1) (fun _ ->
        let order = Array.of_list (Workload.shuffle st (List.init nt Fun.id)) in
        Array.init bindings (fun j ->
            let t = targets.(order.(j mod nt)) in
            ( t,
              {
                Coordinator.bd_name = t.tg_name;
                bd_source = t.tg_text;
                bd_function = t.tg_fname;
                bd_params =
                  List.map (fun p -> (p, 1 + Random.State.int st max_value)) t.tg_params;
              } )))
  in
  let answers = Array.make (cfg.ops + 1) [||] in
  let d = start_daemon cfg dir in
  let op i =
    let sweep = sweeps.(i + 1) in
    let results, co =
      Trace.span "coordinator.run" (fun () ->
          Coordinator.run [ d.ep ] (Array.to_list (Array.map snd sweep)))
    in
    Trace.count "coordinator.bindings" (float_of_int co.Coordinator.co_finished);
    Trace.count "coordinator.redispatched" (float_of_int co.co_redispatched);
    Trace.count "coordinator.duplicates" (float_of_int co.co_duplicates);
    answers.(i + 1) <-
      Array.map
        (function
          | Ok (r : Serve.response) when r.rs_status = "ok" -> (
              match (Serve.field r "fpi", Serve.field r "total") with
              | Some f, Some t -> (float_of_string f, float_of_string t)
              | _ -> failwith "binding answered without fpi/total")
          | Ok r -> failwith ("binding answered " ^ r.rs_status ^ ": " ^ r.rs_body)
          | Error e -> failwith ("binding unanswered: " ^ e))
        results;
    Array.length results
  in
  (try ignore (op (-1))
   with e ->
     stop_daemon d;
     raise e);
  let pool = ref None and stats0 = ref (fun _ -> 0.0) in
  let cpu0 = ref 0.0 and traced_ops = ref 0 in
  let trace_begin () =
    let p = Client.create [ d.ep ] in
    pool := Some p;
    stats0 := stats p;
    cpu0 := Common.proc_cpu_s d.pid
  in
  let probe i =
    let p = Option.get !pool in
    incr traced_ops;
    let t, b = sweeps.(i + 1).(0) in
    let ok what = function
      | Ok (r : Serve.response) when r.rs_status = "ok" -> ()
      | _ -> failwith (what ^ " failed")
    in
    ok "ping" (Trace.span "client.ping" (fun () -> Client.request p Serve.Ping));
    ok "eval"
      (Trace.span "client.eval" (fun () ->
           Client.request p
             (Serve.Eval
                {
                  ev_name = t.tg_name;
                  ev_source = t.tg_text;
                  ev_function = b.Coordinator.bd_function;
                  ev_params = b.bd_params;
                  ev_budget = Serve.no_budget;
                })))
  in
  let trace_end () =
    let p = Option.get !pool in
    let s1 = stats p in
    let s0 = !stats0 in
    let delta k = s1 k -. s0 k in
    Trace.set "serve.daemon_cpu_ms_per_op"
      ((Common.proc_cpu_s d.pid -. !cpu0) *. 1000.0 /. float_of_int (max 1 !traced_ops));
    List.iter
      (fun (m, k) -> Trace.set m (delta k))
      [
        ("serve.served", "served");
        ("serve.failed", "failed");
        ("serve.shed", "shed");
        ("serve.protocol_errors", "protocol-errors");
        ("serve.compile_hits", "compile-hits");
        ("serve.compile_misses", "compile-misses");
      ];
    Client.close p
  in
  (* every binding's fpi and total equal in-process [Mira.counts] for
     the same parameters (the wire carries %.12g) *)
  let check () =
    List.concat
      (List.init cfg.ops (fun i ->
           let bad = ref 0 in
           (* an op that failed in the loop has no answers to check *)
           if Array.length answers.(i + 1) = bindings then
             Array.iteri
               (fun j (t, b) ->
                 let want =
                   Mira.counts t.tg_m ~fname:t.tg_fname ~env:b.Coordinator.bd_params
                 in
                 let fpi, total = answers.(i + 1).(j) in
                 if
                   not
                     (Workload.rel_close ~tol:1e-9 fpi (Model_eval.fpi want)
                     && Workload.rel_close ~tol:1e-9 total (Model_eval.total want))
                 then incr bad)
               sweeps.(i + 1);
           if !bad = 0 then []
           else
             [ (Some i, Printf.sprintf "%d bindings differ from Mira.counts" !bad) ]))
  in
  {
    Workload.op;
    probe;
    trace_begin;
    trace_end;
    check;
    extra_cpu_s = (fun () -> Common.proc_cpu_s d.pid);
    rss_pid = d.pid;
    diag =
      (fun () ->
        [ ("targets", Json.Int nt); ("bindings_per_op", Json.Int bindings) ]);
    close =
      (fun () ->
        stop_daemon d;
        Common.rm_rf dir);
  }

let workload =
  {
    Workload.name = "serve_sweep";
    why =
      "A parameter sweep answered by a warm daemon: the wire path that no \
       library workload covers.";
    layers =
      "Coordinator chunking and merge, Client transport, frame codec, the \
       daemon's event loop, worker hand-off and cache lookups; analysis and \
       compilation only in set-up, compiled evaluation a tiny share.";
    ops_per_s = 30.0;
    unit_name = "bindings answered";
    setup;
  }
