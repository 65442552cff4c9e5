(** Symbolic count expressions.

    Parametric iteration counts are polynomials in the model
    parameters whenever the loop nest is affine and rectangular or
    triangular; [max]/[min], floor/ceiling division (loop steps,
    lattice constraints), guards (interval splitting) and explicit
    sums/products extend them to the remaining cases Mira handles.
    Values are exact rationals at evaluation time. *)

type t = private
  | P of Poly.t
  | Add of t * t
  | Mul of t * t
  | Max of t * t
  | Min of t * t
  | Fdiv of t * int  (** floor division by a positive integer constant *)
  | Cdiv of t * int  (** ceiling division by a positive integer constant *)
  | If of Poly.t * t * t
      (** [If (g, a, b)] is [a] when [g >= 0] holds, else [b]. *)

val poly : Poly.t -> t
val of_int : int -> t
val of_ratio : Ratio.t -> t
val var : string -> t
val zero : t
val one : t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val max_ : t -> t -> t
val min_ : t -> t -> t
val fdiv : t -> int -> t
val cdiv : t -> int -> t
val if_ : Poly.t -> t -> t -> t

val clamp0 : t -> t
(** [clamp0 e] is [max 0 e] — the "empty loop executes zero times"
    guard. *)

val sum : t list -> t

val to_poly : t -> Poly.t option
(** [Some p] iff the expression is a plain polynomial. *)

val is_const : t -> Ratio.t option

val eval : (string -> Ratio.t) -> t -> Ratio.t
val eval_int : (string -> int) -> t -> int
val eval_float : (string -> float) -> t -> float

val vars : t -> string list
(** Variables occurring anywhere in the expression, sorted, each once. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_python : t -> string
