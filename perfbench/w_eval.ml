(* eval_grid: one op is the shape of `mira dataset` over the whole
   corpus.  For every parameterized function: a fresh
   [Model_compile.compile] with all its parameters swept, then
   [points] seeded grid points through a [Model_compile.runner].  A
   function the compiler rejects (miniFE [assemble], whose deferred
   count depends on the sweep variables) is evaluated once by
   [Model_eval.eval] at a small size instead, nx = ny = nz cycling
   through 2..4 from a seeded start so every run has the same mix.  The analysis
   pipeline runs only in set-up. *)

open Mira_core

let points = 1024
let max_value = 4096

type target = {
  tg_model : Model_ir.t;
  tg_fname : string;
  tg_params : string list;
}

(* One compiled grid point per target and op, kept for the gate. *)
type sample = {
  s_op : int;
  s_target : target;
  s_env : (string * int) list;
  s_out : (string * float) list;
}

let setup (cfg : Common.cfg) =
  let targets =
    List.concat_map
      (fun (name, text) ->
        let m = Mira.analyze ~source_name:(name ^ ".mc") text in
        List.filter_map
          (fun (f : Model_ir.fmodel) ->
            match Mira.parameters m ~fname:f.mf_name with
            | [] -> None
            | ps -> Some { tg_model = m.model; tg_fname = f.mf_name; tg_params = ps })
          m.model.Model_ir.functions)
      Mira_corpus.Corpus.all
  in
  let samples = ref [] in
  let sink = ref 0.0 in
  let run_op i =
    let st = Common.rng cfg.seed ("grid", i) in
    let evals = ref 0 in
    List.iter
      (fun t ->
        match
          Trace.span "model_compile.compile" (fun () ->
              Model_compile.compile t.tg_model ~fname:t.tg_fname
                ~sweep:t.tg_params ~fixed:[])
        with
        | prog ->
            Trace.count "model_compile.targets" 1.0;
            Trace.count "model_compile.prog_ops"
              (float_of_int (Model_compile.n_ops prog));
            let r = Model_compile.runner prog in
            let args = Array.make (List.length t.tg_params) 0 in
            Trace.span "model_compile.run" (fun () ->
                for k = 1 to points do
                  for j = 0 to Array.length args - 1 do
                    args.(j) <- 1 + Random.State.int st max_value
                  done;
                  let out = Model_compile.run r args in
                  sink := !sink +. out.(0);
                  if k = 1 then
                    samples :=
                      {
                        s_op = i;
                        s_target = t;
                        s_env = List.mapi (fun j p -> (p, args.(j))) t.tg_params;
                        s_out =
                          Array.to_list
                            (Array.mapi
                               (fun j mn -> (mn, out.(j)))
                               (Model_compile.mnemonics prog));
                      }
                      :: !samples
                done);
            Trace.count "model_compile.evals" (float_of_int points);
            evals := !evals + points
        | exception Model_compile.Not_compilable _ ->
            Trace.count "model_compile.not_compilable" 1.0;
            let size = 2 + ((i + cfg.seed) mod 3 + 3) mod 3 in
            let env = List.map (fun p -> (p, size)) t.tg_params in
            let out =
              Trace.span "model_eval.fallback" (fun () ->
                  Model_eval.eval t.tg_model ~fname:t.tg_fname ~env)
            in
            Trace.count "model_eval.fallback_evals" 1.0;
            sink := !sink +. Model_eval.total out;
            incr evals)
      targets;
    !evals
  in
  (* the warm-up op, whose samples the gate does not need *)
  ignore (run_op (-1));
  samples := [];
  (* compiled results equal the interpreter at one sampled point per
     function and op, within 1e-6 relative *)
  let check () =
    List.concat_map
      (fun s ->
        Trace.current_op := s.s_op;
        let want =
          Trace.span "model_eval.check" (fun () ->
              Model_eval.eval s.s_target.tg_model ~fname:s.s_target.tg_fname
                ~env:s.s_env)
        in
        let ok =
          List.length want = List.length s.s_out
          && List.for_all2
               (fun (m, a) (m', b) ->
                 m = m' && Workload.rel_close ~tol:1e-6 a b)
               s.s_out want
        in
        if ok then []
        else
          [
            ( Some s.s_op,
              s.s_target.tg_fname ^ ": compiled counts differ from Model_eval" );
          ])
      (List.rev !samples)
  in
  {
    Workload.no_extras with
    op = run_op;
    check;
    diag =
      (fun () ->
        [
          ("targets", Json.Int (List.length targets));
          ("points_per_target", Json.Int points);
        ]);
  }

let workload =
  {
    Workload.name = "eval_grid";
    why =
      "Evaluating ready models over many input sizes, the paper's cheap-to-\
       evaluate claim: compiled programs plus the enumerating fallback.";
    layers =
      "program compilation (Model_compile.compile), compiled evaluation \
       (runner), interpreted evaluation (Model_eval fallback for miniFE \
       assemble); the analysis pipeline runs only in set-up.";
    ops_per_s = 28.0;
    unit_name = "model evaluations";
    setup;
  }
