(** Histories and the serializability oracle (paper §2.1, Defs. 1–3,
    Appendix A).

    A history is the sequence of method invocations (with recorded return
    values) that actually executed.  The oracle used by the test suite
    checks the guarantee commutativity-based conflict detection must
    provide: the concurrent execution is {e serializable} — some serial
    order of the committed transactions reproduces every recorded return
    value and ends in the same abstract state.  It groups the history by
    transaction once and tries the serial orders lazily, in
    {!permutations}' order over the ascending transaction ids, resetting
    and replaying a {!model} for each until the first witness. *)

(** A replayable model of an ADT.  The oracle resets it once per order it
    tries, so [reset] should restore the state in place rather than build
    a new one. *)
type model = {
  reset : unit -> unit;  (** restore the initial abstract state, in place *)
  apply : string -> Value.t array -> Value.t;
      (** invoke a method on the invocation's argument array *)
  snapshot : unit -> Value.t;  (** current abstract state, comparable *)
}

(** Every ordering of a list, in lexicographic order of positions. *)
val permutations : 'a list -> 'a list list

(** Distinct transaction ids appearing in a history, ascending. *)
val txns_of : Invocation.t list -> int list

(** Is the recorded concurrent history serializable?  [final] is the
    abstract state the concurrent execution actually ended in. *)
val serializable : model -> final:Value.t -> Invocation.t list -> bool

(** The witness serialization order, for diagnostics: the first order, in
    {!permutations}' order over {!txns_of}, that reproduces every return
    value and ends in [final]. *)
val serialization_witness :
  model -> final:Value.t -> Invocation.t list -> int list option

(** Check Definition 1 directly: do two invocations commute in the state
    reached by applying [prefix] from the initial state?  True iff running
    them in both orders yields the same return values and the same final
    abstract state. *)
val commute_in_state :
  model ->
  prefix:(string * Value.t list) list ->
  string * Value.t list ->
  string * Value.t list ->
  bool
