(* The benchmark's host-speed kernel (see perfbench/speed.py): a fixed
   piece of OCaml work (hashing, allocation, tree inserts, float
   arithmetic, sorting) whose CPU time tracks how fast this host runs
   native OCaml code right now.  It links no library of this repository,
   so no change to the program under test can move it.  Prints the CPU
   seconds the work took. *)

module M = Map.Make (Int)

let work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 99_999 do
    let k = i * 7919 mod 10_007 in
    Hashtbl.replace h k (i + Option.value ~default:0 (Hashtbl.find_opt h k))
  done;
  let m = ref M.empty in
  for i = 0 to 29_999 do
    m := M.add (i * 7919 mod 10_007) i !m
  done;
  let acc = ref 0.0 in
  for i = 1 to 100_000 do
    acc := !acc +. (sqrt (float_of_int i) *. 1.0001)
  done;
  let l = List.sort compare (List.init 30_000 (fun i -> i * 7919 mod 10_007)) in
  Sys.opaque_identity (Hashtbl.length h, M.cardinal !m, !acc, List.length l)

let () =
  let t0 = Sys.time () in
  ignore (work ());
  Printf.printf "%.9f\n" (Sys.time () -. t0)
