type what = Fuel | Depth | Deadline

exception Exhausted of what

let what_to_string = function
  | Fuel -> "fuel"
  | Depth -> "recursion depth"
  | Deadline -> "deadline"

type t = {
  mutable fuel : int;  (* remaining ticks; max_int means unlimited *)
  fuel_limit : int;
  depth_limit : int;
  mutable depth : int;
  deadline : float;  (* absolute wall-clock time; infinity means none *)
  mutable clock_in : int;  (* ticks until the next deadline check *)
}

let default_depth = 10_000

(* How often [tick] consults the wall clock.  Small enough that a
   source with a few hundred tokens still notices an expired deadline,
   large enough that gettimeofday stays off the hot path. *)
let clock_period = 64

let make ?fuel ?(depth = default_depth) ?timeout_ms () =
  let fuel = match fuel with Some f -> max 0 f | None -> max_int in
  let deadline =
    match timeout_ms with
    | Some ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0)
    | None -> infinity
  in
  {
    fuel;
    fuel_limit = fuel;
    depth_limit = max 1 depth;
    depth = 0;
    deadline;
    clock_in = clock_period;
  }

(* The current-budget slot is per {e sys-thread}, not per domain.
   [Domain.DLS] cannot hold it: every thread spawned with
   [Thread.create] shares its domain's DLS copy, so concurrent server
   threads (the daemon runs one per connection, all on domain 0) would
   overwrite each other's slot — one request's ticks burning another's
   fuel, and a restore firing mid-request dropping a live budget back
   to the permissive default.

   Slots live in one global array indexed by [Thread.id]: ids are
   process-unique, small, monotonically allocated ints (each domain's
   initial thread has one too, so [Domain.spawn] batch workers are
   covered by the same mechanism).  The hot-path read is lock-free — a
   thread only ever reads or writes its own slot — while writes and
   growth go through [slots_mu]; the array reference itself is atomic,
   so a reader racing a grow sees either array, and both hold its
   slot's current value because growth copies under the same mutex
   every writer holds. *)

let slots_mu = Mutex.create ()
let slots : t option array Atomic.t = Atomic.make (Array.make 64 None)

let set_slot id v =
  Mutex.lock slots_mu;
  let a = Atomic.get slots in
  let a =
    if id < Array.length a then a
    else begin
      let grown = Array.make (max (id + 1) (2 * Array.length a)) None in
      Array.blit a 0 grown 0 (Array.length a);
      Atomic.set slots grown;
      grown
    end
  in
  a.(id) <- v;
  Mutex.unlock slots_mu

let slot_of id =
  let a = Atomic.get slots in
  if id < Array.length a then a.(id) else None

let current () =
  let id = Thread.id (Thread.self ()) in
  match slot_of id with
  | Some b -> b
  | None ->
      (* first touch on this thread: a fresh permissive default (its
         depth/clock counters are mutable, so it cannot be shared) *)
      let b = make () in
      set_slot id (Some b);
      b

let check_deadline b =
  if b.deadline < infinity && Unix.gettimeofday () > b.deadline then
    raise (Exhausted Deadline)

let install b f =
  check_deadline b;
  let id = Thread.id (Thread.self ()) in
  let prev = slot_of id in
  set_slot id (Some b);
  Fun.protect ~finally:(fun () -> set_slot id prev) f

let count_down b =
  b.clock_in <- b.clock_in - 1;
  if b.clock_in <= 0 then begin
    b.clock_in <- clock_period;
    check_deadline b
  end

let tick () =
  let b = current () in
  if b.fuel <> max_int then begin
    if b.fuel <= 0 then raise (Exhausted Fuel);
    b.fuel <- b.fuel - 1
  end;
  count_down b

let poll () = count_down (current ())

let with_depth f =
  let b = current () in
  if b.depth >= b.depth_limit then raise (Exhausted Depth);
  b.depth <- b.depth + 1;
  Fun.protect ~finally:(fun () -> b.depth <- b.depth - 1) f

let spent () =
  let b = current () in
  if b.fuel_limit = max_int then 0 else b.fuel_limit - b.fuel

let time_left_s () =
  let b = current () in
  if b.deadline = infinity then None
  else Some (b.deadline -. Unix.gettimeofday ())
