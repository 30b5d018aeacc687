(** Histories and the serializability oracle (paper §2.1, Defs. 1–3,
    Appendix A).

    A history is the sequence of method invocations (with recorded return
    values) that actually executed.  The oracle used by the test suite
    checks the guarantee that commutativity-based conflict detection is
    supposed to provide: the concurrent execution is {e serializable} —
    there is some serial order of the committed transactions in which every
    invocation returns exactly what it returned in the concurrent run and
    which ends in the same abstract state.

    The oracle needs a replayable {!model} of the ADT.  It groups the
    history by transaction once, then tries the serial orders one at a
    time, in {!permutations}' order over ascending transaction ids,
    resetting the model and replaying each, and stops at the first
    witness. *)

type model = {
  reset : unit -> unit;  (** restore the initial abstract state, in place *)
  apply : string -> Value.t array -> Value.t;
      (** invoke a method on the invocation's argument array *)
  snapshot : unit -> Value.t;  (** current abstract state, comparable *)
}

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let txns_of (history : Invocation.t list) =
  List.sort_uniq Int.compare (List.map (fun (i : Invocation.t) -> i.txn) history)

(* Reset [model] and replay the transactions [groups.(order.(0))],
   [groups.(order.(1))], ... in turn, stopping at the first invocation
   that does not return its recorded value. *)
let replay_order (model : model) (groups : Invocation.t array array) order =
  model.reset ();
  let ok (i : Invocation.t) =
    Value.equal (model.apply i.meth.name i.args) i.ret
  in
  Array.for_all (fun t -> Array.for_all ok groups.(t)) order

(** The first witness order, as transaction ids, in [permutations]' order
    over the ascending ids. *)
let witness (model : model) ~(final : Value.t) (history : Invocation.t list) =
  let ids = Array.of_list (txns_of history) in
  let groups =
    Array.map
      (fun txn ->
        Array.of_list
          (List.filter (fun (i : Invocation.t) -> i.txn = txn) history))
      ids
  in
  let n = Array.length ids in
  let order = Array.make n 0 and used = Array.make n false in
  (* Try every completion of [order.(0 .. d-1)] in turn; [true] at the
     first witness, which is left in [order]. *)
  let rec fill d =
    if d = n then
      replay_order model groups order && Value.equal (model.snapshot ()) final
    else
      let rec next i =
        if i = n then false
        else if used.(i) then next (i + 1)
        else begin
          used.(i) <- true;
          order.(d) <- i;
          let found = fill (d + 1) in
          used.(i) <- false;
          found || next (i + 1)
        end
      in
      next 0
  in
  if fill 0 then Some (Array.map (fun j -> ids.(j)) order) else None

(** Is the recorded concurrent history serializable?  [final] is the
    abstract state the concurrent execution actually ended in. *)
let serializable (model : model) ~final history =
  Option.is_some (witness model ~final history)

(** The witness order, for diagnostics. *)
let serialization_witness (model : model) ~final history =
  Option.map Array.to_list (witness model ~final history)

(** Check Definition 1 directly: do two invocations commute in the given
    state?  [prefix] brings the model from its initial state to the state
    of interest; returns [true] iff running [i1;i2] and [i2;i1] from there
    yields the same return values and the same final abstract state.  Used
    to validate the example specifications against ground truth. *)
let commute_in_state (model : model) ~(prefix : (string * Value.t list) list)
    (m1, args1) (m2, args2) =
  let apply (m, args) = model.apply m (Array.of_list args) in
  let run order =
    model.reset ();
    List.iter (fun op -> ignore (apply op)) prefix;
    let rets = List.map apply order in
    (rets, model.snapshot ())
  in
  let r12, s12 = run [ (m1, args1); (m2, args2) ] in
  let r21, s21 = run [ (m2, args2); (m1, args1) ] in
  match (r12, r21) with
  | [ ra; rb ], [ rb'; ra' ] ->
      Value.equal ra ra' && Value.equal rb rb' && Value.equal s12 s21
  | _ -> assert false
