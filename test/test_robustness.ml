(* Robustness guarantees over the malformed corpus (corpus/bad):
   - every bad source produces a structured Diag.t with the exact
     phase, kind and position locked down here — no crash path (in
     particular no Stack_overflow) escapes Batch;
   - 20k-deep nesting hits the recursion-depth budget, not the native
     stack;
   - the failure set and report are byte-identical at jobs=1 and
     jobs=4;
   - lattice-point enumeration of a deferred count stops at the
     caller's deadline, in the interpreter and in the compiler. *)

open Mira_core

let bad_dir =
  (* dune runtest runs in test/'s build dir; dune exec from the root *)
  let rel = Filename.concat "corpus" "bad" in
  if Sys.file_exists rel then rel else Filename.concat ".." rel

let bad_sources = Batch.sources_of_paths [ bad_dir ]

(* name, phase, kind, position (0,0 = none expected), message substring *)
let expected =
  [
    ("bad_annot_key.mc", Diag.Annotate, Diag.User_error, (0, 0),
     {|unknown annotation key "wibble"|});
    ("bad_annot_value.mc", Diag.Analysis, Diag.User_error, (0, 0),
     "malformed annotation value: n*+");
    ("bad_pragma.mc", Diag.Lex, Diag.User_error, (1, 13), "malformed pragma");
    ("deep_braces.mc", Diag.Analysis, Diag.Budget_exhausted, (0, 0),
     "recursion depth");
    ("deep_parens.mc", Diag.Analysis, Diag.Budget_exhausted, (0, 0),
     "recursion depth");
    ("dup_function.mc", Diag.Typecheck, Diag.User_error, (2, 1),
     "duplicate function f");
    ("int_overflow.mc", Diag.Lex, Diag.User_error, (2, 11),
     "integer literal 99999999999999999999 out of range");
    ("stray_char.mc", Diag.Lex, Diag.User_error, (2, 12),
     "unexpected character '@'");
    ("truncated.mc", Diag.Parse, Diag.User_error, (1, 9),
     {|expected type, found "{"|});
    ("unterminated_comment.mc", Diag.Lex, Diag.User_error, (5, 1),
     "unterminated comment");
  ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let phase_name = Diag.phase_to_string
let kind_name = Diag.kind_to_string

let check_diag name (diag : Diag.t) (phase, kind, (line, col), sub) =
  let open Alcotest in
  check string (name ^ " phase") (phase_name phase)
    (phase_name diag.d_phase);
  check string (name ^ " kind") (kind_name kind) (kind_name diag.d_kind);
  (match (line, Diag.primary_pos diag) with
  | 0, _ -> () (* position not locked for this case *)
  | _, None -> failf "%s: expected position %d:%d, diag has none" name line col
  | _, Some p ->
      check (pair int int) (name ^ " position") (line, col)
        (p.Mira_srclang.Loc.line, p.Mira_srclang.Loc.col));
  check bool
    (Printf.sprintf "%s message %S in %S" name sub diag.d_message)
    true
    (contains ~sub diag.d_message)

let robustness_tests =
  let open Alcotest in
  [
    test_case "bad corpus is present and complete" `Quick (fun () ->
        check (list string) "source names"
          (List.map (fun (n, _, _, _, _) -> n) expected)
          (List.map (fun s -> s.Batch.src_name) bad_sources));
    test_case "every bad source yields its exact diagnostic" `Quick (fun () ->
        let results, stats = Batch.run bad_sources in
        check int "all failed" (List.length expected) stats.st_failed;
        List.iter2
          (fun result (name, phase, kind, pos, sub) ->
            match result with
            | Ok (a : Batch.analysis) ->
                failf "%s: expected a diagnostic, analysis succeeded (%s)"
                  name a.a_name
            | Error (n, diag) ->
                check string (name ^ " slot") name n;
                check_diag name diag (phase, kind, pos, sub))
          results expected);
    test_case "deep nesting is a depth budget, not a crash" `Quick (fun () ->
        (* drive the analyzer directly (no Batch safety net): the
           depth budget must fire before the native stack would *)
        let deep =
          List.find (fun s -> s.Batch.src_name = "deep_parens.mc") bad_sources
        in
        (match Mira.analyze ~source_name:deep.src_name deep.Batch.src_text with
        | _ -> Alcotest.fail "deep nesting unexpectedly analyzed"
        | exception Mira_limits.Budget.Exhausted Mira_limits.Budget.Depth -> ()
        | exception Stack_overflow ->
            Alcotest.fail "Stack_overflow escaped the depth budget");
        (* the deep statement variant too *)
        let deep_b =
          List.find (fun s -> s.Batch.src_name = "deep_braces.mc") bad_sources
        in
        match Mira.analyze ~source_name:deep_b.src_name deep_b.Batch.src_text
        with
        | _ -> Alcotest.fail "deep nesting unexpectedly analyzed"
        | exception Mira_limits.Budget.Exhausted Mira_limits.Budget.Depth -> ()
        | exception Stack_overflow ->
            Alcotest.fail "Stack_overflow escaped the depth budget");
    test_case "bad-corpus reports byte-identical at jobs=1 and jobs=4" `Quick
      (fun () ->
        let r1, s1 = Batch.run ~jobs:1 bad_sources in
        let r4, s4 = Batch.run ~jobs:4 bad_sources in
        check string "reports" (Batch.report r1 s1) (Batch.report r4 s4));
    test_case "budget diagnostics count as budget in stats" `Quick (fun () ->
        let _, stats = Batch.run bad_sources in
        check int "st_budget" 2 stats.st_budget);
  ]

(* The guard j > 2i leaves the inner domain without a closed form, so
   the count is deferred to enumeration: about n^2 points.  At n = 3e9
   only the budget can end it. *)
let deferred_src =
  {|double f(double *a, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      if (j > 2 * i) {
        s = s + a[j];
      }
    }
  }
  return s;
}|}

let deadline_tests =
  let open Alcotest in
  [
    test_case "deferred enumeration honours the deadline" `Quick (fun () ->
        let model = (Mira.analyze ~source_name:"tri.mc" deferred_src).model in
        let env = [ ("n", 3_000_000_000) ] in
        let bounded what f =
          let t0 = Unix.gettimeofday () in
          (match
             Mira_limits.Budget.install
               (Mira_limits.Budget.make ~timeout_ms:200 ())
               f
           with
          | () -> failf "%s returned instead of exhausting its budget" what
          | exception
              Mira_limits.Budget.Exhausted Mira_limits.Budget.Deadline ->
              ());
          let dt = Unix.gettimeofday () -. t0 in
          if dt > 5.0 then failf "%s noticed the deadline after %.1fs" what dt
        in
        bounded "Model_eval.eval" (fun () ->
            ignore (Model_eval.eval model ~fname:"f" ~env));
        bounded "Model_compile.compile" (fun () ->
            ignore
              (Model_compile.compile model ~fname:"f" ~sweep:[] ~fixed:env)));
    test_case "enumerated points burn no fuel" `Quick (fun () ->
        (* ~40k points against 1000 units of fuel: fuel bounds analysis
           work, so a fuel= request that succeeded before enumeration
           was budgeted still succeeds *)
        let model = (Mira.analyze ~source_name:"tri.mc" deferred_src).model in
        let env = [ ("n", 400) ] in
        let fuelled f =
          Mira_limits.Budget.install (Mira_limits.Budget.make ~fuel:1000 ()) f
        in
        let expected = Model_eval.eval model ~fname:"f" ~env in
        check bool "eval" true
          (fuelled (fun () -> Model_eval.eval model ~fname:"f" ~env)
          = expected);
        let compile () =
          Model_compile.compile model ~fname:"f" ~sweep:[] ~fixed:env
        in
        check bool "compile" true
          (Model_compile.eval (fuelled compile) ~env:[]
          = Model_compile.eval (compile ()) ~env:[]));
  ]

let () =
  Alcotest.run "robustness"
    [ ("bad-corpus", robustness_tests); ("deadline", deadline_tests) ]
