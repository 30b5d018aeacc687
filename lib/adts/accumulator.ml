(** The accumulator ADT (paper Fig. 7) — the running example for the
    abstract-locking construction (Fig. 8).

    [increment(x)] adds [x] to the total and returns nothing; [read()]
    returns the total.  Increments commute with each other; reads commute
    with each other; an increment never commutes with a read. *)

open Commlat_core

type t = { mutable total : int }

let create () = { total = 0 }
let increment t x = t.total <- t.total + x
let read t = t.total
let reset t = t.total <- 0

let m_increment = Invocation.meth "increment" 1
let m_read = Invocation.meth ~mutates:false "read" 0
let methods = [ m_increment; m_read ]

(** Fig. 7: increments self-commute, reads self-commute, increment/read
    conflict unconditionally. *)
let spec () =
  let s = Spec.create ~adt:"accumulator" methods in
  Spec.add_sym s "increment" "increment" Formula.True;
  Spec.add_sym s "increment" "read" Formula.False;
  Spec.add_sym s "read" "read" Formula.True;
  s

let exec (t : t) name (args : Value.t array) =
  match (name, args) with
  | "increment", [| v |] ->
      increment t (Value.to_int v);
      Value.Unit
  | "read", [||] -> Value.Int (read t)
  | _ -> Value.type_error "accumulator: bad invocation %s" name

let invoke_increment (det : Detector.t) t ~txn x =
  let inv = Invocation.make ~txn m_increment [| Value.Int x |] in
  ignore (det.Detector.on_invoke inv (fun () -> exec t "increment" inv.Invocation.args))

let undo (t : t) (inv : Invocation.t) =
  match inv.Invocation.meth.name with
  | "increment" -> increment t (-Value.to_int inv.Invocation.args.(0))
  | _ -> ()

let model () : History.model =
  let t = create () in
  {
    History.reset = (fun () -> reset t);
    apply = exec t;
    snapshot = (fun () -> Value.Int t.total);
  }
