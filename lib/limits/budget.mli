(** Per-thread analysis budgets.

    Every analysis pass that recurses or loops over untrusted input
    consults the thread's {e current budget}: a fuel counter (bounding
    total work), a recursion-depth cap (bounding stack growth well
    below [Stack_overflow] territory), and an optional wall-clock
    deadline (checked every few fuel ticks, so a runaway source times
    out instead of hanging a worker).

    The budget is installed with {!install} for the dynamic extent of
    one analysis; the hot paths call {!tick} and {!with_depth} without
    threading state through every signature.  Each {e sys-thread} owns
    its own slot, keyed by [Thread.id] — not [Domain.DLS], which all
    of a domain's threads share — so concurrent batch worker domains
    {e and} concurrent server threads on one domain cannot observe
    each other's budgets.  When nothing is installed a permissive
    default applies: unlimited fuel, no deadline, and a recursion-depth
    cap of {!default_depth} (deep enough for any legitimate program,
    shallow enough that native stacks never overflow). *)

type what = Fuel | Depth | Deadline

exception Exhausted of what
(** Raised by {!tick} / {!with_depth} when the current budget runs out.
    Never raised by the default budget except for [Depth]. *)

val what_to_string : what -> string
(** ["fuel"], ["recursion depth"], ["deadline"]. *)

type t

val default_depth : int
(** Depth cap of the default budget (10_000). *)

val make : ?fuel:int -> ?depth:int -> ?timeout_ms:int -> unit -> t
(** A fresh budget.  [fuel] bounds the number of {!tick}s (default
    unlimited); [depth] bounds {!with_depth} nesting (default
    {!default_depth}); [timeout_ms] sets a wall-clock deadline that
    starts now (default none).  A [timeout_ms] of [0] expires on the
    first check. *)

val install : t -> (unit -> 'a) -> 'a
(** [install b f] makes [b] the calling thread's current budget for the
    duration of [f], restoring the previous budget afterwards (also on
    exceptions).  The deadline is checked once on entry. *)

val tick : unit -> unit
(** Burn one unit of fuel on the current budget; every 64 ticks the
    wall-clock deadline is also checked.  Raises {!Exhausted}. *)

val poll : unit -> unit
(** Like {!tick} but burns no fuel: only the wall-clock deadline is
    checked, every 64 polls.  For loops whose length is set by an
    evaluation's inputs rather than by the analyzed source, so fuel
    keeps measuring analysis work.  Raises [Exhausted Deadline]. *)

val with_depth : (unit -> 'a) -> 'a
(** Run one recursion level deeper; raises [Exhausted Depth] when the
    current budget's cap is exceeded. *)

val spent : unit -> int
(** Fuel consumed so far on the current budget (for tests and stats). *)

val time_left_s : unit -> float option
(** Seconds until the current budget's wall-clock deadline ([None]
    when it has no deadline; non-positive once it has passed).  Lets
    slow paths that sleep voluntarily — retry backoff, queue waits —
    cap the sleep so they never outlive the deadline that is supposed
    to bound them. *)
