(* analyze_cold: one op is what `mira batch` without a cache does —
   [Batch.run ~jobs:1] over the 16 corpus programs in seeded order.
   Every stage of the pipeline does its full work and nothing is
   served from a cache. *)

open Mira_core

let span = Trace.span
let count name v = Trace.count name (float_of_int v)

(* The cold path of [Batch.run] taken piece by piece, so each stage
   gets its own span: [Input_processor.process] (prepare, then the
   compiler's own parse of the text, encode, decode, disassemble),
   [Bridge.create], [Metric_gen.build] as its parts plus assembly,
   and [Python_emit.emit]. *)
let traced_one (src : Batch.source) =
  let open Mira_srclang in
  let text = src.Batch.src_text in
  let parsed = span "srclang.parse" (fun () -> Parser.parse text) in
  let folded = span "codegen.fold" (fun () -> Mira_codegen.Fold.program parsed) in
  let ast = span "srclang.typecheck" (fun () -> Typecheck.check_exn folded) in
  ignore
    (span "srclang.fingerprint" (fun () -> Fingerprint.context_of_program ast));
  let prog =
    span "codegen.compile" (fun () ->
        Mira_codegen.Codegen.compile ~level:Mira_codegen.Codegen.O1 text)
  in
  let obj = span "visa.encode" (fun () -> Mira_visa.Objfile.encode prog) in
  count "visa.object_bytes" (String.length obj);
  let decoded = span "visa.decode" (fun () -> Mira_visa.Objfile.decode obj) in
  let binast =
    span "visa.disasm" (fun () -> Mira_visa.Binast.of_program decoded)
  in
  let bridge = span "bridge.create" (fun () -> Bridge.create binast) in
  List.iter
    (fun (f : Mira_visa.Binast.bin_func) ->
      count "bridge.instructions" (List.length f.finsns))
    binast.Mira_visa.Binast.bfuncs;
  let parts =
    List.map
      (fun f ->
        span "metric_gen.part" (fun () -> Metric_gen.build_part ast bridge f))
      (Ast.all_functions ast)
  in
  count "metric_gen.functions" (List.length parts);
  let model =
    span "metric_gen.assemble" (fun () ->
        Metric_gen.assemble ~source_name:src.src_name parts)
  in
  let py = span "python_emit.emit" (fun () -> Python_emit.emit model) in
  count "python_emit.bytes" (String.length py);
  py

let pythons results =
  List.map
    (function
      | Ok (a : Batch.analysis) -> a.a_python
      | Error (name, d) -> failwith (name ^ ": " ^ Diag.to_string d))
    results

(* Once per run: static counts equal the VM's retired counts for the
   paper's three applications at small sizes. *)
let vm_gate () =
  let analyze name src = Mira.analyze ~source_name:(name ^ ".mc") src in
  let dyn vm fname =
    match Mira_vm.Vm.profile_of vm fname with
    | None -> (0.0, 0)
    | Some p ->
        ( List.fold_left
            (fun acc m -> acc +. float_of_int (Mira_vm.Vm.count_of p m))
            0.0 Model_eval.fp_mnemonics,
          p.calls )
  in
  let expect what static (dyn_total, calls) =
    let per_call = dyn_total /. float_of_int (max 1 calls) in
    if static = per_call then []
    else
      [ (None, Printf.sprintf "%s: model fpi %g, VM fpi %g" what static per_call) ]
  in
  let stream = analyze "stream" Mira_corpus.Corpus.stream in
  let n, ntimes = (500, 2) in
  let vm = Mira_corpus.Corpus.run_stream ~n ~ntimes in
  let g1 =
    expect "stream_driver"
      (Mira.fpi stream ~fname:"stream_driver" ~env:[ ("n", n); ("ntimes", ntimes) ])
      (dyn vm "stream_driver")
  in
  let dgemm = analyze "dgemm" Mira_corpus.Corpus.dgemm in
  let n = 12 in
  let vm = Mira_corpus.Corpus.run_dgemm ~n in
  let g2 =
    expect "dgemm" (Mira.fpi dgemm ~fname:"dgemm" ~env:[ ("n", n) ]) (dyn vm "dgemm")
  in
  let minife = analyze "minife" Mira_corpus.Corpus.minife in
  let nx, ny, nz = (4, 4, 4) in
  let run = Mira_corpus.Corpus.run_minife ~nx ~ny ~nz ~max_iter:5 in
  let nrows = nx * ny * nz in
  let g3 =
    expect "waxpby"
      (Mira.fpi minife ~fname:"waxpby" ~env:[ ("n", nrows) ])
      (dyn run.vm "waxpby")
  in
  let g4 =
    expect "matvec_std::apply"
      (Mira.fpi minife ~fname:"matvec_std::apply" ~env:[ ("nrows", nrows) ])
      (dyn run.vm "matvec_std::apply")
  in
  g1 @ g2 @ g3 @ g4

let setup (cfg : Common.cfg) =
  let sources = Workload.corpus_sources (Common.rng cfg.seed "order") in
  (* the warm-up op; its Python is what every later op must repeat *)
  let reference = pythons (fst (Batch.run ~jobs:1 sources)) in
  let same got =
    if not (List.equal String.equal got reference) then
      failwith "emitted Python differs from the first op's"
  in
  let op _ =
    if !Trace.enabled then same (List.map traced_one sources)
    else same (pythons (fst (Batch.run ~jobs:1 sources)));
    List.length sources
  in
  {
    Workload.no_extras with
    op;
    check = vm_gate;
    diag =
      (fun () ->
        [
          ( "order",
            Json.Arr (List.map (fun s -> Json.Str s.Batch.src_name) sources) );
        ]);
  }

let workload =
  {
    Workload.name = "analyze_cold";
    why =
      "The whole pipeline on every corpus program with nothing cached: the \
       static-model generation cost the paper claims is small.";
    layers =
      "lexer/parser, fold/typecheck, fingerprint, codegen (with its own \
       parse), objfile encode, decode+disassembly, bridge, metric generation \
       (half of it miniFE assemble), assembly, Python emission; no cache, \
       evaluation or wire layer.";
    ops_per_s = 18.0;
    unit_name = "programs analyzed";
    setup;
  }
