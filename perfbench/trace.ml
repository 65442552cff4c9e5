(* Spans and counts recorded by the benchmark around its calls into
   each layer's public functions.  Nothing is recorded unless
   [enabled] is set, so the untraced run pays one branch per call.

   A span holds its name, start and end, the span that caused it, the
   op it belongs to and the minor words allocated while it was open.
   Spans are kept in memory and written at exit as Chrome trace-event
   JSON.  A span's self time is its duration minus its children's;
   spans nest strictly because every span is opened on the main
   thread. *)

type span = {
  name : string;
  op : int;
  parent : int;  (** index into [spans], or -1 *)
  mutable t0 : float;
  mutable t1 : float;
  mutable w0 : float;
  mutable w1 : float;
}

let enabled = ref false
let current_op = ref (-1)
let spans : span array ref = ref [||]
let n_spans = ref 0
let stack : int list ref = ref []
let counts : (int * string, float) Hashtbl.t = Hashtbl.create 64
let run_values : (string, float) Hashtbl.t = Hashtbl.create 16

let push s =
  if !n_spans = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !n_spans)) s in
    Array.blit !spans 0 bigger 0 !n_spans;
    spans := bigger
  end;
  !spans.(!n_spans) <- s;
  incr n_spans;
  !n_spans - 1

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    let s =
      { name; op = !current_op; parent; t0 = 0.; t1 = 0.; w0 = 0.; w1 = 0. }
    in
    let i = push s in
    stack := i :: !stack;
    s.w0 <- Common.minor_words ();
    s.t0 <- Common.now ();
    let close () =
      s.t1 <- Common.now ();
      s.w1 <- Common.minor_words ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Add [v] to the per-op count [name] of the current op. *)
let count name v =
  if !enabled then
    let k = (!current_op, name) in
    Hashtbl.replace counts k
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts k))

(* A value measured once over the whole traced run. *)
let set name v = if !enabled then Hashtbl.replace run_values name v

(* ---------- per-op aggregation ---------- *)

type op_agg = {
  self_s : (string, float) Hashtbl.t;
  self_words : (string, float) Hashtbl.t;
  max_s : (string, float) Hashtbl.t;  (** longest single span *)
  cnt : (string, float) Hashtbl.t;
}

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v)

(* One aggregate per op numbered [from] or above, in op order. *)
let per_op ~from =
  let n = !n_spans in
  let self_s = Array.init n (fun i -> !spans.(i).t1 -. !spans.(i).t0) in
  let self_w = Array.init n (fun i -> !spans.(i).w1 -. !spans.(i).w0) in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then begin
      self_s.(s.parent) <- self_s.(s.parent) -. (s.t1 -. s.t0);
      self_w.(s.parent) <- self_w.(s.parent) -. (s.w1 -. s.w0)
    end
  done;
  let ops = Hashtbl.create 256 in
  let agg op =
    match Hashtbl.find_opt ops op with
    | Some a -> a
    | None ->
        let a =
          {
            self_s = Hashtbl.create 32;
            self_words = Hashtbl.create 32;
            max_s = Hashtbl.create 8;
            cnt = Hashtbl.create 16;
          }
        in
        Hashtbl.replace ops op a;
        a
  in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let a = agg s.op in
    add a.self_s s.name self_s.(i);
    add a.self_words s.name self_w.(i);
    Hashtbl.replace a.max_s s.name
      (Float.max (get a.max_s s.name) (s.t1 -. s.t0))
  done;
  Hashtbl.iter (fun (op, name) v -> add (agg op).cnt name v) counts;
  Hashtbl.fold (fun op a acc -> (op, a) :: acc) ops []
  |> List.filter (fun (op, _) -> op >= from)
  |> List.sort compare |> List.map snd

(* ---------- export ---------- *)

let chrome_json () =
  let open Mira_core.Json in
  let base = if !n_spans > 0 then !spans.(0).t0 else 0.0 in
  let us t = Float (Float.round ((t -. base) *. 1e7) /. 10.0) in
  let events =
    List.init !n_spans (fun i ->
        let s = !spans.(i) in
        Obj
          [
            ("name", Str s.name);
            ("ph", Str "X");
            ("ts", us s.t0);
            ("dur", Float (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.0));
            ("pid", Int 1);
            ("tid", Int 1);
            ( "args",
              Obj
                [
                  ("op", Int s.op);
                  ("span", Int i);
                  ("parent", Int s.parent);
                  ("minor_words", Float (s.w1 -. s.w0));
                ] );
          ])
  in
  to_string (Obj [ ("traceEvents", Arr events); ("displayTimeUnit", Str "ms") ])
