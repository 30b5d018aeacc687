(** Object-granularity software transactional memory — the baseline the
    paper compares against (they used DSTM2; see DESIGN.md §4 for the
    substitution).

    Conflict detection is at the level of the ADT's concrete cells (tree
    nodes, parent-pointer cells, graph nodes), reported through the
    {!Commlat_adts.Mem_trace} instrumentation: a transaction conflicts if
    it reads a cell written by another live transaction or writes a cell
    read or written by one.  Checking happens when each method invocation
    completes (invocations are atomic, §2.1), so an aborted transaction is
    rolled back by its semantic undo log exactly as with the other
    detectors. *)

open Commlat_core
open Commlat_adts

(** A fresh STM: its detector, named ["stm"], and the memory-trace sink
    ADTs report their concrete reads/writes to.  [?obs] enables/disables
    the observability registry (scope ["stm"]: [invocations],
    [conflicts], [read_set]/[write_set] distributions).  Most callers
    should go through [Protect.protect] with an [adt] carrying a
    [connect_tracer]. *)
val create : ?obs:bool -> unit -> Detector.t * Mem_trace.t
