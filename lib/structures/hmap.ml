(* Lock-free hash map: the classic construction over Michael's
   list-based sets [11] — a fixed array of ordered-set buckets, each
   an independent lock-free list, all drawing nodes from one shared
   memory manager.

   Inherits the ordered set's scheme-generality (runs on all five
   schemes) and its progress properties from the underlying manager:
   with the wait-free manager the memory operations inside every map
   operation are wait-free; the list traversal itself is lock-free, as
   in Michael's original.

   Keys are hashed with a Fibonacci multiplier; per-bucket key space
   is the full int range (the bucket stores the original key). *)

module Mm = Mm_intf

type t = {
  buckets : Oset.t array;
  mask : int;
}

(* Power-of-two bucket count. *)
let create mm ~buckets ~tid =
  if buckets < 1 || buckets land (buckets - 1) <> 0 then
    invalid_arg "Hmap.create: buckets must be a positive power of two";
  {
    buckets = Array.init buckets (fun _ -> Oset.create mm ~tid);
    mask = buckets - 1;
  }

let num_buckets t = t.mask + 1

let heads t = Array.map Oset.head t.buckets

(* Fibonacci hashing spreads consecutive keys across buckets. *)
let bucket t k =
  let h = k * 0x2545F4914F6CDD1D in
  t.buckets.((h lsr 17) land t.mask)

let insert t ~tid k v = Oset.insert (bucket t k) ~tid k v
let remove t ~tid k = Oset.remove (bucket t k) ~tid k
let mem t ~tid k = Oset.mem (bucket t k) ~tid k
let lookup t ~tid k = Oset.lookup (bucket t k) ~tid k

let size t ~tid =
  Array.fold_left (fun acc b -> acc + Oset.size b ~tid) 0 t.buckets

let to_list t ~tid =
  List.sort compare
    (Array.to_list t.buckets |> List.concat_map (fun b -> Oset.to_list b ~tid))

let clear t ~tid =
  Array.fold_left (fun acc b -> acc + Oset.clear b ~tid) 0 t.buckets
