(** Universal runtime values for the commutativity-formula interpreter.

    Commutativity conditions (the logic {b L1} of the paper, Fig. 1) range
    over method arguments, return values and the results of uninterpreted
    functions on abstract state.  At runtime these are all represented
    uniformly as values of type {!t}, so that the generic detector
    constructions (abstract locking, gatekeeping) can log, compare and hash
    them without knowing the concrete ADT. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Point of float array  (** d-dimensional point, used by the kd-tree *)
  | Pair of t * t
  | Opt of t option
  | List of t list

(** {1 Constructors} *)

val unit : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val str : string -> t
val point : float array -> t
val pair : t -> t -> t
val opt : t option -> t
val list : t list -> t

(** {1 Errors} *)

exception Type_error of string

(** [type_error fmt …] raises {!Type_error} with a formatted message. *)
val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Printing} *)

val pp : t Fmt.t
val to_string : t -> string

(** {1 Structural operations}

    Equality is structural; floats compare with [Float.equal] (so
    [nan = nan]), which is what memoised gatekeeper logs need: a logged
    value must compare equal to itself when re-checked. *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** [hash] is compatible with {!equal}: equal values hash equally. *)
val hash : t -> int

(** {1 Projections}

    All raise {!Type_error} on a constructor mismatch.  [to_float] also
    accepts [Int]. *)

val to_bool : t -> bool
val to_int : t -> int
val to_float : t -> float
val to_point : t -> float array

(** {1 Containers keyed by values} *)

module As_key : sig
  type nonrec t = t

  val equal : t -> t -> bool
  val hash : t -> int
  val compare : t -> t -> int
end

module Tbl : Hashtbl.S with type key = t
module Map : Map.S with type key = t
module Set : Set.S with type elt = t
