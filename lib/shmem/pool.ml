[@@@wfrc.progress "lock_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* The free pool of the comparison schemes, after Brown's record
   manager: one pool component every reclaimer draws from.

   Single list: a Treiber stack whose head, on one hot slot, carries a
   modification stamp bumped by every successful CAS (the classic ABA
   fix). On-list nodes' [mm_next] words are written only while the
   node is private, so a pass that loses its CAS read nothing that
   matters. lfrc additionally pins the candidate's count before
   reading [mm_next] (the paper's §3.1), through a [guard].

   Sharded: the [Freestore]'s stripes and domain-local caches, where
   an empty pass is not yet exhaustion (nodes may sit in other
   threads' caches), hence the timed parks and the one dead-cache
   adoption of [claim].

   A pass that finds a node allocates nothing here: the loops are
   top-level functions, and [claim] builds its retry state only after
   a pass came up empty. *)

module C = Atomics.Counters
module Hot = Atomics.Hot

exception Out_of_nodes of { retries : int; waits : int }

type store =
  | Single of Hot.t (* one slot: the stamped head *)
  | Sharded of Freestore.t

type t = { arena : Arena.t; ctr : C.t; threads : int; store : store }

type guard = { pin : Value.ptr -> unit; unpin : tid:int -> Value.ptr -> unit }

let create ~backend ~arena ~counters ~threads ~sharded ~shards ~batch =
  let store =
    if sharded then
      Sharded
        (Freestore.create ~backend ~arena ~counters ~shards ~batch ~threads ())
    else begin
      let cap = Arena.capacity arena in
      for h = 1 to cap do
        Arena.write_mm_next arena (Value.of_handle h)
          (if h < cap then Value.of_handle (h + 1) else Value.null)
      done;
      Single
        (Hot.create ~backend 1 ~init:(fun _ ->
             Value.pack_stamped ~stamp:0 ~ptr:(Value.of_handle 1)))
    end
  in
  { arena; ctr = counters; threads; store }

let[@inline] sharded t = match t.store with Sharded _ -> true | Single _ -> false

let restamp hv ptr = Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr

let rec push t head ~tid node =
  let hv = Hot.read head 0 in
  Arena.write_mm_next t.arena node (Value.stamped_ptr hv);
  if not (Hot.cas head 0 ~old:hv ~nw:(restamp hv node)) then begin
    C.incr t.ctr ~tid Free_retry;
    push t head ~tid node
  end

let[@inline] free t ~tid node =
  match t.store with
  | Sharded fs -> Freestore.free fs ~tid node
  | Single head -> push t head ~tid node

let rec pop_single t head ~tid guard =
  let hv = Hot.read head 0 in
  let node = Value.stamped_ptr hv in
  if Value.is_null node then node
  else begin
    (match guard with Some g -> g.pin node | None -> ());
    let next = Arena.read_mm_next t.arena node in
    if Hot.cas head 0 ~old:hv ~nw:(restamp hv next) then node
    else begin
      C.incr t.ctr ~tid Alloc_retry;
      (match guard with Some g -> g.unpin ~tid node | None -> ());
      pop_single t head ~tid guard
    end
  end
[@@wfrc.expect_unbounded
  "stamped Treiber pop: the head CAS can lose to concurrent pushes/pops \
   indefinitely — the comparison schemes' lock-free allocation path"]

let[@inline] pop ?guard t ~tid =
  match t.store with
  | Sharded fs -> (
      match Freestore.alloc fs ~tid with Some p -> p | None -> Value.null)
  | Single head -> pop_single t head ~tid guard

let adopt t ~tid ~dead =
  match t.store with
  | Sharded fs -> Freestore.adopt fs ~tid ~dead
  | Single _ -> 0

(* [claim]'s slow path: [empty] passes so far came up empty; relieve,
   park or adopt and pass again, or give up. *)
let rec starved ?guard t ~tid ~budget ~relief ~dead empty ~rounds ~waits
    ~adopted =
  let again ~rounds ~waits ~adopted =
    C.incr t.ctr ~tid Alloc_retry;
    let node = pop ?guard t ~tid in
    if Value.is_null node then
      starved ?guard t ~tid ~budget ~relief ~dead (empty + 1) ~rounds ~waits
        ~adopted
    else node
  in
  if relief empty then again ~rounds ~waits ~adopted
  else
    match t.store with
    | Sharded fs when rounds < budget ->
        (* Park instead of spinning: a remote free's stripe push or
           return-slot install wakes us. Timed, because nodes in other
           domains' caches are invisible and produce no wake. *)
        Freestore.wait_free fs ~tid ~timeout_ns:200_000;
        again ~rounds:(rounds + 1) ~waits:(waits + 1) ~adopted
    | _ when (not adopted) && adopt t ~tid ~dead > 0 ->
        again ~rounds:0 ~waits ~adopted:true
    | _ ->
        C.incr t.ctr ~tid Oom_backpressure;
        raise (Out_of_nodes { retries = empty; waits })
[@@wfrc.expect_unbounded
  "each pass is a pop whose head CAS can lose indefinitely; the passes \
   themselves are bounded: relief is the scheme's own bounded budget, \
   parks stop at [budget], and the one reset is gated by the one-shot \
   adopted flag, so at most 2*budget parks before Out_of_nodes"]

let[@inline] claim ?guard ?(park = false) ?(relief = fun _ -> false) t ~tid
    ~dead =
  let node = pop ?guard t ~tid in
  if not (Value.is_null node) then node
  else
    let budget = if park then (16 * t.threads) + 16 else 0 in
    starved ?guard t ~tid ~budget ~relief ~dead 1 ~rounds:0 ~waits:0
      ~adopted:false

(* Quiescent inspection. *)

let walk t ~violation =
  let free = Array.make (Arena.capacity t.arena + 1) false in
  let record =
    Arena.mark_free free ~violation
      ~twice:(Printf.sprintf "node #%d in the free pool twice")
  in
  (match t.store with
  | Sharded fs ->
      Freestore.iter_free fs ~violation ~f:(fun p -> ignore (record p))
  | Single head ->
      Arena.iter_chain t.arena
        ~head:(Value.stamped_ptr (Hot.read head 0))
        ~violation:(fun () -> violation "cycle in the free pool")
        ~f:record);
  free

let scratch_blocks t =
  match t.store with Sharded fs -> Freestore.scratch_blocks fs | Single _ -> []
