(* batch_edit: one op is what one `mira batch --cache` invocation does
   after a one-literal edit.  Set-up fills a disk cache with the
   corpus.  Op [i] replaces one integer literal inside one function
   of one corpus file by another of the same width, then opens the
   cache afresh ([Batch.create_cache ~dir], which scans and checksums
   every entry), runs [Batch.run ~jobs:1] over all 16 files (15 file-
   tier hits, one file assembled from function-tier hits plus one
   re-analyzed function) and evicts down to a fixed cap with
   [Batch.gc_disk].  The cap holds the directory at a steady size,
   since the open-time scan grows with it. *)

open Mira_core

(* [e_expect] is the digest of the cold model's Python: the texts
   themselves, some 100 KB per edit, would make the run's inputs most
   of [peak_rss_mb]. *)
type edit = { e_file : int; e_text : string; e_expect : Digest.t }

let is_digit c = c >= '0' && c <= '9'
let is_word c =
  is_digit c || c = '_' || c = '.'
  || Char.lowercase_ascii c <> Char.uppercase_ascii c

let comment_start l =
  let rec go i =
    if i + 1 >= String.length l then None
    else if l.[i] = '/' && l.[i + 1] = '/' then Some i
    else go (i + 1)
  in
  go 0

(* Integer literals inside function bodies, as (offset, width): the
   header line (parameter types), pragma lines (annotations) and
   comments are left alone. *)
let literal_sites text =
  let prog = Mira_srclang.Parser.parse text in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let starts = Array.make (Array.length lines + 1) 0 in
  Array.iteri (fun i l -> starts.(i + 1) <- starts.(i) + String.length l + 1) lines;
  List.filter_map
    (fun (f : Mira_srclang.Ast.func) ->
      let sites = ref [] in
      let span = f.fspan in
      for ln = span.lo.line + 1 to span.hi.line do
        let l = lines.(ln - 1) in
        let code =
          match comment_start l with Some k -> String.sub l 0 k | None -> l
        in
        if not (String.starts_with ~prefix:"#" (String.trim code)) then begin
          let n = String.length code in
          let i = ref 0 in
          while !i < n do
            if is_digit code.[!i] && (!i = 0 || not (is_word code.[!i - 1]))
            then begin
              let j = ref !i in
              while !j < n && is_digit code.[!j] do incr j done;
              if !j >= n || not (is_word code.[!j]) then
                sites := (starts.(ln - 1) + !i, !j - !i) :: !sites;
              i := !j
            end
            else incr i
          done
        end
      done;
      if !sites = [] then None else Some (Array.of_list (List.rev !sites)))
    (Mira_srclang.Ast.all_functions prog)

(* A different, nonzero literal of the same width: lines and columns
   stay put, so only the edited function's digest changes. *)
let redraw st old =
  let w = String.length old in
  let rec go () =
    let s =
      String.init w (fun k ->
          Char.chr
            (Char.code '0'
            + if k = 0 then 1 + Random.State.int st 9 else Random.State.int st 10))
    in
    if s = old then go () else s
  in
  go ()

let python_of = function
  | [ Ok (a : Batch.analysis) ] -> Some a.a_python
  | _ -> None

(* How many distinct edits [redraw] can make of a literal: every
   same-width value with a nonzero first digit, less the literal's own. *)
let edits_of lit =
  let w = String.length lit in
  (9 * int_of_float (10.0 ** float_of_int (w - 1))) - if lit.[0] = '0' then 0 else 1

(* [n] seeded edits, each one checked analyzable (and its cold model
   kept for the gate).  Edit [k] lands in corpus file [k mod 16], so
   every file's function-tier entries are read again within 16 ops and
   the LRU cap evicts only entries no later op can hit.  Within a file
   the edits take its functions in turn, so every run re-analyzes the
   same mix of functions; the seed picks the literal and its new value.

   A function's visits draw new distinct edits until it has none left
   (a function with one width-1 literal has 8 or 9); later visits
   cycle through the analyzable ones drawn.  In the corpus every
   function keeps at least 9 and every file has at least 2 functions,
   so a text comes back after 9 * 2 * 16 = 288 ops or more, long after
   the cap (about 24 edits' entries beyond the corpus) has evicted its
   entries: a repeat costs what a fresh edit does, and any op count
   works. *)
let draw_edits st (sources : Batch.source array) n =
  let sites =
    Array.map (fun s -> Array.of_list (literal_sites s.Batch.src_text)) sources
  in
  let text fi = sources.(fi).Batch.src_text in
  let left =
    Array.mapi
      (fun fi fs ->
        Array.map
          (Array.fold_left
             (fun acc (off, w) -> acc + edits_of (String.sub (text fi) off w))
             0)
          fs)
      sites
  in
  let drawn = Array.map (Array.map (fun _ -> [||])) sites in
  let tried = Hashtbl.create n in
  (* a new analyzable edit of function [fn] of file [fi], if any is left *)
  let rec fresh fi fn =
    if left.(fi).(fn) = 0 then None
    else begin
      let fsites = sites.(fi).(fn) in
      let off, w = fsites.(Random.State.int st (Array.length fsites)) in
      let t = text fi in
      let lit = redraw st (String.sub t off w) in
      if Hashtbl.mem tried (fi, off, lit) then fresh fi fn
      else begin
        Hashtbl.replace tried (fi, off, lit) ();
        left.(fi).(fn) <- left.(fi).(fn) - 1;
        let edited =
          String.sub t 0 off ^ lit ^ String.sub t (off + w) (String.length t - off - w)
        in
        match
          python_of
            (fst (Batch.run ~jobs:1 [ { (sources.(fi)) with src_text = edited } ]))
        with
        | Some py -> Some { e_file = fi; e_text = edited; e_expect = Digest.string py }
        | None -> fresh fi fn
      end
    end
  in
  let nf = Array.length sources in
  Array.init n (fun k ->
      let fi = k mod nf in
      let nfn = Array.length sites.(fi) in
      let fn = k / nf mod nfn and visit = k / nf / nfn in
      let d = drawn.(fi).(fn) in
      if visit < Array.length d then d.(visit)
      else
        match fresh fi fn with
        | Some e ->
            drawn.(fi).(fn) <- Array.append d [| e |];
            e
        | None when d <> [||] -> d.(visit mod Array.length d)
        | None ->
            failwith
              (Printf.sprintf
                 "batch_edit: no literal edit of function %d of %s analyzes" fn
                 sources.(fi).src_name))

let bytes_with_suffix dir suffix =
  Array.fold_left
    (fun acc e ->
      if Filename.check_suffix e suffix then
        acc + (Unix.stat (Filename.concat dir e)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

let entries dir =
  Array.fold_left
    (fun acc e ->
      if Filename.check_suffix e ".model" || Filename.check_suffix e ".fnmodel"
      then acc + 1
      else acc)
    0 (Sys.readdir dir)

let setups = ref 0

let setup (cfg : Common.cfg) =
  incr setups;
  let dir = Filename.concat cfg.tmp (Printf.sprintf "batch-%d" !setups) in
  Common.rm_rf dir;
  Common.mkdir_p dir;
  let corpus =
    Array.of_list
      (List.map
         (fun (name, text) -> { Batch.src_name = name ^ ".mc"; src_text = text })
         Mira_corpus.Corpus.all)
  in
  (* the batch order is seeded; the edit schedule follows corpus order *)
  let order =
    Array.of_list
      (Workload.shuffle (Common.rng cfg.seed "order")
         (List.init (Array.length corpus) Fun.id))
  in
  let sources = Array.map (fun j -> corpus.(j)) order in
  (* the first [warm] edits are the warm-up ops'; three rounds over the
     corpus bring the directory to its steady size before timing (the
     cap holds about 24 edits' entries, and the original entries no op
     reads again must age out) *)
  let warm = 3 * Array.length sources in
  let edits = draw_edits (Common.rng cfg.seed "edits") corpus (warm + cfg.ops) in
  let slot = Array.make (Array.length corpus) 0 in
  Array.iteri (fun pos j -> slot.(j) <- pos) order;
  let cache = Batch.create_cache ~dir () in
  ignore (Batch.run ~jobs:1 ~cache (Array.to_list sources));
  (* room for the corpus's entries plus those of the last 24 edits:
     16 edits write about one corpus's worth of file-tier entries, and
     every entry still in use was read within the last 16 ops *)
  let cap =
    Common.dir_bytes dir
    + 3
      * (bytes_with_suffix dir ".model" + bytes_with_suffix dir ".fnmodel")
      / 2
  in
  (* each op's Python is compared as it comes and only the verdict is
     kept *)
  let same = Array.make (warm + cfg.ops) false in
  let op i =
    let e = edits.(i + warm) in
    let srcs =
      Array.to_list
        (Array.mapi
           (fun j s ->
             if j = slot.(e.e_file) then { s with Batch.src_text = e.e_text }
             else s)
           sources)
    in
    if !Trace.enabled then
      Trace.count "batch.entries_scanned" (float_of_int (entries dir));
    let cache = Trace.span "batch.open" (fun () -> Batch.create_cache ~dir ()) in
    let results, st =
      Trace.span "batch.run" (fun () -> Batch.run ~jobs:1 ~cache srcs)
    in
    ignore (Trace.span "batch.gc" (fun () -> Batch.gc_disk ~max_bytes:cap cache));
    if st.Batch.st_failed > 0 then failwith "an edited corpus file failed to analyze";
    (match List.nth results slot.(e.e_file) with
    | Ok a -> same.(i + warm) <- Digest.equal (Digest.string a.a_python) e.e_expect
    | Error _ -> ());
    if !Trace.enabled then begin
      let c name v = Trace.count name (float_of_int v) in
      c "batch.disk_hits" st.st_disk_hits;
      c "batch.fn_disk_hits" st.st_fn_disk_hits;
      c "batch.fn_analyzed" st.st_fn_analyzed;
      c "batch.io_retries" st.st_io_retries;
      c "batch.corrupt" st.st_cache_corrupt;
      Trace.count "batch.cache_mb" (float_of_int (Common.dir_bytes dir) /. 1e6)
    end;
    1
  in
  for i = -warm to -1 do
    ignore (op i)
  done;
  let first_entries = entries dir in
  let check () =
    List.concat
      (List.init cfg.ops (fun i ->
           if same.(i + warm) then []
           else
             [ (Some i, "incremental model differs from a cold run") ]))
  in
  {
    Workload.no_extras with
    op;
    check;
    diag =
      (fun () ->
        [
          ("cap_bytes", Json.Int cap);
          ("entries_scanned_first", Json.Int first_entries);
          ("entries_scanned_last", Json.Int (entries dir));
        ]);
    close = (fun () -> Common.rm_rf dir);
  }

let workload =
  {
    Workload.name = "batch_edit";
    why =
      "The edit-and-rebatch loop: cache tiers do most of the work, reads and \
       writes, and the pipeline runs for one function only.";
    layers =
      "Batch cache open (recovery scan), file-tier and function-tier disk \
       reads, incremental re-analysis of one function, fsync'd publishes, \
       size-capped GC; the only workload that writes.";
    ops_per_s = 25.0;
    unit_name = "edits";
    setup;
  }
