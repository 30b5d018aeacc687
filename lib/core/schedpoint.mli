(** Virtual yield points for systematic concurrency testing.

    The runtime's synchronization operations — guard acquire/release,
    detector invoke/commit/abort, STM cell reads/writes — announce
    themselves here just before they execute.  In production nothing is
    installed and {!emit} is a single predictable branch; under the
    deterministic scheduler ([Commlat_sched]) a hook is installed that
    suspends the current fiber at each announcement, turning every
    synchronization point into an explicit scheduling decision.

    The hook is {e domain-local} and unsynchronized within its domain:
    each domain may install at most one hook, and emissions only reach the
    hook installed on the emitting domain.  This is what lets the
    explorer ([Commlat_sched.Explore]) run one virtual scheduler per
    domain concurrently; exploration still never shares a domain with
    [Executor.run_domains]. *)

(** A synchronization point, announced {e before} the operation runs. *)
type action =
  | Acquire of int  (** {!Guard.lock} on the guard with this creation id *)
  | Release of int  (** {!Guard.unlock} *)
  | Invoke of { det : string; inv : Invocation.t }
      (** a detector is about to mediate [inv] *)
  | Commit of { det : string; txn : int }  (** [on_commit] about to run *)
  | Abort of { det : string; txn : int }  (** [on_abort] about to run *)
  | Read of int  (** STM tracer: concrete cell read *)
  | Write of int  (** STM tracer: concrete cell write *)

val pp_action : action Fmt.t

(** [install f] routes every subsequent {!emit} {e on this domain} to
    [f]; raises [Invalid_argument] if this domain already has a hook. *)
val install : (action -> unit) -> unit

(** Remove this domain's hook (idempotent). *)
val uninstall : unit -> unit

(** Is a hook currently installed on this domain? *)
val active : unit -> bool

(** Announce an action: calls this domain's hook, or does nothing. *)
val emit : action -> unit
