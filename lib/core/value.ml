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

let unit = Unit
let bool b = Bool b
let int i = Int i
let float f = Float f
let str s = Str s
let point p = Point p
let pair a b = Pair (a, b)
let opt o = Opt o
let list l = List l

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | Str s -> Fmt.pf ppf "%S" s
  | Point p ->
      Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ",") float) p
  | Pair (a, b) -> Fmt.pf ppf "<%a,%a>" pp a pp b
  | Opt None -> Fmt.string ppf "None"
  | Opt (Some v) -> Fmt.pf ppf "Some %a" pp v
  | List l -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:semi pp) l

let to_string v = Fmt.str "%a" pp v

(* Structural equality.  Floats compare with [Float.equal] (so nan = nan),
   which is what we want for memoised logs: a logged value must compare
   equal to itself when re-checked. *)
let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Point x, Point y ->
      Array.length x = Array.length y
      && (let ok = ref true in
          Array.iteri (fun i xi -> if not (Float.equal xi y.(i)) then ok := false) x;
          !ok)
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | Opt None, Opt None -> true
  | Opt (Some x), Opt (Some y) -> equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | _ -> false

let rec compare a b =
  let tag = function
    | Unit -> 0 | Bool _ -> 1 | Int _ -> 2 | Float _ -> 3 | Str _ -> 4
    | Point _ -> 5 | Pair _ -> 6 | Opt _ -> 7 | List _ -> 8
  in
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Point x, Point y ->
      let c = Int.compare (Array.length x) (Array.length y) in
      if c <> 0 then c
      else
        let rec go i =
          if i >= Array.length x then 0
          else
            let c = Float.compare x.(i) y.(i) in
            if c <> 0 then c else go (i + 1)
        in
        go 0
  | Pair (x1, x2), Pair (y1, y2) ->
      let c = compare x1 y1 in
      if c <> 0 then c else compare x2 y2
  | Opt x, Opt y -> Option.compare compare x y
  | List x, List y -> List.compare compare x y
  | _ -> Int.compare (tag a) (tag b)

let rec hash = function
  | Unit -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash i
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Point p -> Array.fold_left (fun acc f -> (acc * 31) + Hashtbl.hash f) 41 p
  | Pair (a, b) -> (hash a * 31) + hash b
  | Opt None -> 43
  | Opt (Some v) -> (hash v * 31) + 47
  | List l -> List.fold_left (fun acc v -> (acc * 31) + hash v) 53 l

(* Projections, raising {!Type_error} on mismatch. *)

let to_bool = function Bool b -> b | v -> type_error "expected bool, got %a" pp v
let to_int = function Int i -> i | v -> type_error "expected int, got %a" pp v

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> type_error "expected float, got %a" pp v

let to_point = function Point p -> p | v -> type_error "expected point, got %a" pp v

module As_key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Tbl = Hashtbl.Make (As_key)
module Map = Stdlib.Map.Make (As_key)
module Set = Stdlib.Set.Make (As_key)
