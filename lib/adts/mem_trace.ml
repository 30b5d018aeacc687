(** Concrete-memory access tracing.

    The paper's baseline detects conflicts at the memory level (DSTM2-style
    object granularity).  Our ADTs expose the equivalent instrumentation:
    each internal cell (tree node, parent pointer, graph node record) has an
    integer id, and a tracer is told about every read and write of a cell.
    The STM baseline and the ParaMeter profiler plug in here; the default
    tracer is free. *)

type t = { read : int -> unit; write : int -> unit }

let null = { read = ignore; write = ignore }

(** A tracer that accumulates read/write sets, for profiling. *)
type collector = {
  tracer : t;
  reads : (int, unit) Hashtbl.t;
  writes : (int, unit) Hashtbl.t;
}

let collector () =
  let reads = Hashtbl.create 64 and writes = Hashtbl.create 64 in
  {
    tracer =
      {
        read = (fun c -> if not (Hashtbl.mem reads c) then Hashtbl.add reads c ());
        write = (fun c -> if not (Hashtbl.mem writes c) then Hashtbl.add writes c ());
      };
    reads;
    writes;
  }

let clear c =
  Hashtbl.reset c.reads;
  Hashtbl.reset c.writes

(* Hashtbl.fold enumerates in bucket order, which varies with insertion
   history; sort so profiler output and tests are deterministic. *)
let read_list c =
  Hashtbl.fold (fun k () acc -> k :: acc) c.reads [] |> List.sort Int.compare

let write_list c =
  Hashtbl.fold (fun k () acc -> k :: acc) c.writes [] |> List.sort Int.compare
