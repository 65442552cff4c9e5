(** Iteration domains: loop nests with affine bounds, affine guards and
    lattice (modulo) guards.

    A domain describes the static control part (SCoP) of a loop nest.
    Bounds are polynomials over outer loop variables and model
    parameters ([Mira_symexpr.Poly]); for a well-formed polyhedral
    domain they are affine in the loop variables, which
    {!val:validate} checks. *)

open Mira_symexpr

type level = {
  var : string;  (** loop index variable *)
  lo : Poly.t;  (** inclusive lower bound *)
  hi : Poly.t;  (** inclusive upper bound *)
  step : int;  (** positive stride *)
}

type guard =
  | Ge of Poly.t  (** [Ge p] constrains [p >= 0] *)
  | Mod_eq of Poly.t * int  (** [Mod_eq (p, m)] constrains [p ≡ 0 (mod m)] *)
  | Mod_ne of Poly.t * int  (** [Mod_ne (p, m)] constrains [p ≢ 0 (mod m)] *)

type t = {
  levels : level list;  (** outermost first *)
  guards : guard list;
}

val empty : t
val level : ?step:int -> string -> lo:Poly.t -> hi:Poly.t -> level

val add_level : t -> level -> t
(** Appends an innermost level. *)

val add_guard : t -> guard -> t

val loop_vars : t -> string list
(** Loop variables, outermost first. *)

val equal : t -> t -> bool
(** Same levels (variables, bounds, steps) and same guards, in order;
    bounds and guards compare with {!Mira_symexpr.Poly.equal}, never
    with polymorphic equality, which sees the internal shape of the
    polynomial maps. *)

val hash : t -> int
(** Consistent with {!equal}. *)

val parameters : t -> string list
(** Free variables that are not loop indices, sorted. *)

type violation =
  | Nonaffine_bound of { var : string; bound : Poly.t }
  | Nonpositive_step of { var : string; step : int }
  | Duplicate_var of string
  | Nonaffine_guard of Poly.t
  | Bad_modulus of int

val validate : t -> (unit, violation list) result
(** Checks the domain is a well-formed SCoP: bounds and guards affine
    in the loop variables (arbitrary polynomials in parameters are
    allowed), strictly positive steps, distinct index variables,
    moduli [>= 2]. *)

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> t -> unit
