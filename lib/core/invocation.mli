(** Method descriptors and invocation records.

    An invocation is one atomic method call on a linearizable data
    structure (paper §2.1): a method, its arguments, its return value, the
    transaction that issued it and a global sequence number giving its
    linearization order (used by the general gatekeeper to roll state
    back). *)

type meth = {
  name : string;
  arity : int;
  mutates : bool;
      (** [true] if the method can change the {e abstract} state
          (e.g. [contains] and [nearest] never do). *)
  concrete : bool;
      (** [true] if the method can change the {e concrete} state.  Implied
          by [mutates]; additionally true for abstractly read-only methods
          with concrete side effects — the canonical example is
          union-find's [find], whose path compression rewrites parent
          pointers.  Transaction aborts must undo such methods (an aborted
          invocation has already executed when a gatekeeper detects the
          conflict). *)
  rollback_log : bool;
      (** [true] if the general gatekeeper must include this method in its
          mutation log so that past-state reconstruction undoes it.
          Defaults to [concrete]; can be turned off for concrete-but-
          abstractly-read-only methods whose writes provably never
          invalidate reconstruction (see
          {!Commlat_adts.Union_find.m_find_light}). *)
}

(** [meth name arity] describes a method.  [mutates] defaults to [true];
    [concrete] defaults to [mutates]; [rollback_log] defaults to
    [concrete]. *)
val meth : ?mutates:bool -> ?concrete:bool -> ?rollback_log:bool -> string -> int -> meth

val pp_meth : meth Fmt.t

type t = {
  uid : int;  (** unique id; lets ADTs attach per-invocation undo records *)
  meth : meth;
  args : Value.t array;
  mutable ret : Value.t;
  txn : int;  (** issuing transaction *)
  mutable seq : int;
      (** global linearization index, stamped by the detector when the
          invocation executes *)
}

(** Fresh invocation record with an unset return value and a unique
    [uid]. *)
val make : txn:int -> meth -> Value.t array -> t

(** The uid {!make} never issues. *)
val probe_uid : int

(** An invocation record that is never inserted, committed or undone (a
    read-only admission probe): uid {!probe_uid}, so building one writes
    no shared counter. *)
val probe : txn:int -> meth -> Value.t array -> t

val pp : t Fmt.t

(** [env ~sfun ~vfun i1 i2] builds a formula-evaluation environment binding
    the [M1] variables to invocation [i1] and the [M2] variables to [i2].
    State functions are delegated to [sfun] (which also receives the
    canonical term, letting gatekeepers answer from logs); pure value
    functions to [vfun]. *)
val env :
  sfun:(string -> Formula.state -> Value.t list -> Formula.term -> Value.t) ->
  vfun:(string -> Value.t list -> Value.t) ->
  t ->
  t ->
  Formula.env
