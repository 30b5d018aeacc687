(** Method descriptors and invocation records.

    An invocation is one atomic method call on a linearizable data structure
    (paper §2.1): a method, its arguments, its return value, the transaction
    that issued it and a global sequence number giving its linearization
    order (used by the general gatekeeper to roll state back). *)

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

let meth ?(mutates = true) ?concrete ?rollback_log name arity =
  let concrete = Option.value ~default:mutates concrete in
  { name; arity; mutates; concrete;
    rollback_log = Option.value ~default:concrete rollback_log }

let pp_meth ppf m = Fmt.string ppf m.name

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

(* [make] issues uids from 1; [probe_uid] is never issued. *)
let uid_counter = Atomic.make 1
let probe_uid = 0

let make ~txn meth args =
  { uid = Atomic.fetch_and_add uid_counter 1; meth; args; ret = Value.Unit; txn; seq = 0 }

let probe ~txn meth args = { uid = probe_uid; meth; args; ret = Value.Unit; txn; seq = 0 }

let pp ppf i =
  Fmt.pf ppf "%s(%a)/%a@@t%d" i.meth.name
    Fmt.(array ~sep:comma Value.pp)
    i.args Value.pp i.ret i.txn

(** Build a formula-evaluation environment binding the [M1] variables to
    invocation [i1] and the [M2] variables to [i2].  State functions are
    delegated to [sfun]; pure value functions to [vfun]. *)
let env ~(sfun : string -> Formula.state -> Value.t list -> Formula.term -> Value.t)
    ~(vfun : string -> Value.t list -> Value.t) (i1 : t) (i2 : t) : Formula.env =
  let arg side idx =
    let i = match side with Formula.M1 -> i1 | Formula.M2 -> i2 in
    if idx < 0 || idx >= Array.length i.args then
      Value.type_error "argument index %d out of range for %s" idx i.meth.name
    else i.args.(idx)
  in
  let ret side = match side with Formula.M1 -> i1.ret | Formula.M2 -> i2.ret in
  { Formula.arg; ret; sfun; vfun }
