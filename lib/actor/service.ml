(* Actor/mailbox runtime over the WFRC structures — the "millions of
   users" service scenario. Every actor owns a Michael–Scott queue as
   its MPSC mailbox, the actor registry is the lock-free hash map, and
   a skiplist timer wheel (RC schemes only) drives timeouts — all
   drawing nodes from ONE memory manager, so spawn/send/receive/retire
   exercise the paper's scheme as the service's real allocator.

   Slot protocol. The service owns [max_actors] slots; slot [s] claims
   arena root cells 2s (mailbox head) and 2s+1 (mailbox tail). An
   actor id encodes its slot and a generation: id = slot +
   max_actors * gen, so a recycled slot never resurrects an old id
   (the registry lookup for a dead id simply misses). Each slot
   carries two service-level atomics:

     state    0 = free | id+1 = live | -(id+1) = closing
     inflight  number of threads inside the send/receive guard window

   A sender increments [inflight] BEFORE reading [state]; the retirer
   CASes state live -> closing and then waits for [inflight] = 0
   before destroying the mailbox. Sequential consistency of the two
   atomics gives the usual flag/flag argument: if the sender read
   [live], its increment precedes the retirer's CAS, so the retirer's
   wait sees it and the destroy cannot race the enqueue; if the sender
   read [closing], it never touches the queue. The wait is bounded
   (under Sim a spinning fiber would never yield to the thread it
   waits for): on timeout the slot is parked as a zombie — out of
   circulation, destroyed at quiescent teardown. A sender that
   crashes inside the guard window leaves [inflight] raised forever,
   which turns that slot into a zombie by construction; its mailbox
   nodes stay reachable from the slot roots until teardown adopts
   them, which is exactly the custody story the audit checks.

   Slot ownership. Free slots live on plain per-thread lists (a slot
   freed by a retire migrates to the retiring thread's list), so
   spawn/retire touch no shared service state beyond the two slot
   atomics and the manager itself. Stats are per-thread plain counters
   summed at quiescent points. *)

module Mm = Mm_intf
module Q = Structures.Queue
module Hmap = Structures.Hmap

(* Each thread's entry in a counter array sits [pad] words (128 bytes,
   a cache line and its prefetch partner) from the next thread's, as
   [Atomics.Counters] pads its rows: both domains bump [sent] and
   [received] on every message, and adjacent words would share a line.
   The padding words stay 0, so a plain sum is still the total. *)
let pad = 16

type counters = {
  spawned : int array;
  spawn_fail : int array;
  sent : int array;
  send_drop : int array;
  received : int array;
  recv_empty : int array;
  retired : int array;
  zombied : int array;
  discarded : int array;
}

type totals = {
  spawned : int;
  spawn_fail : int;
  sent : int;
  send_drop : int;
  received : int;
  recv_empty : int;
  retired : int;
  zombied : int;
  discarded : int;
}

type t = {
  mm : Mm.instance;
  threads : int;
  max_actors : int;
  registry : Hmap.t;
  wheel : Timer.t option;
  state : int Atomic.t array;
  inflight : int Atomic.t array;
  mailbox : Q.t option array;
  gen : int array; (* written only by the slot's current owner *)
  free : int list array; (* per-thread free-slot lists *)
  c : counters;
}

(* Layout helper: root cells 0 .. 2*max_actors-1 are the mailbox
   head/tail pairs, then one anchor per registry bucket, then one for
   the timer wheel. Three data words and [levels] links satisfy every
   structure involved (queue: 1 link + 1 data; oset: 1 link + 2 data;
   skiplist: [levels] links + 3 data). *)
let mm_config ?(backend = Atomics.Backend.Native) ?(shards = 1) ?(batch = 1)
    ?defer ?(levels = 4) ~threads ~capacity ~max_actors ~buckets () =
  Mm.config ~backend ~shards ~batch ?defer ~threads ~capacity
    ~num_links:(max 1 levels) ~num_data:3
    ~num_roots:((2 * max_actors) + buckets + 1) ()

let create mm ~max_actors ~buckets ~seed ~tid =
  if max_actors < 1 then invalid_arg "Service.create: max_actors < 1";
  let cfg = Mm.conf mm in
  let threads = cfg.Mm.threads in
  if cfg.Mm.num_roots < (2 * max_actors) + buckets + 1 then
    invalid_arg
      "Service.create: layout needs 2*max_actors + buckets + 1 root cells \
       (use Service.mm_config)";
  let registry = Hmap.create mm ~buckets ~tid in
  (* Anchor the registry's immortal bucket sentinels in root cells so
     root-based audits see registry nodes as reachable. *)
  let arena = Mm.arena mm in
  Array.iteri
    (fun i head ->
      Mm.store_link mm ~tid
        (Shmem.Arena.root_addr arena ((2 * max_actors) + i))
        head)
    (Hmap.heads registry);
  (* The timer wheel needs reference counting (skiplist); hp/ebr run
     the service without timeouts — the §1 applicability gap at the
     service level. *)
  let wheel =
    if Mm.refcounted mm then
      Some
        (Timer.create mm
           ~anchor_root:((2 * max_actors) + buckets)
           ~seed ~tid)
    else None
  in
  let free = Array.make threads [] in
  for slot = max_actors - 1 downto 0 do
    let owner = slot mod threads in
    free.(owner) <- slot :: free.(owner)
  done;
  let zeros () = Array.make (threads * pad) 0 in
  {
    mm;
    threads;
    max_actors;
    registry;
    wheel;
    state = Array.init max_actors (fun _ -> Atomic.make 0);
    inflight = Array.init max_actors (fun _ -> Atomic.make 0);
    mailbox = Array.make max_actors None;
    gen = Array.make max_actors 0;
    free;
    c =
      {
        spawned = zeros ();
        spawn_fail = zeros ();
        sent = zeros ();
        send_drop = zeros ();
        received = zeros ();
        recv_empty = zeros ();
        retired = zeros ();
        zombied = zeros ();
        discarded = zeros ();
      };
  }

let wheel t = t.wheel
let slot_of t id = id mod t.max_actors
let bump a tid = a.(tid * pad) <- a.(tid * pad) + 1

(* Spawn: claim a slot from this thread's free list, build the
   mailbox, register the id, arm the optional ttl timer, then publish
   via the state atomic (the mailbox write precedes the publication,
   so any sender that passes the guard sees it). Runs out of slots or
   nodes gracefully: [None], with the slot returned on rollback. *)
let spawn ?deadline t ~tid =
  match t.free.(tid) with
  | [] ->
      bump t.c.spawn_fail tid;
      None
  | slot :: rest -> (
      t.free.(tid) <- rest;
      let g = t.gen.(slot) + 1 in
      t.gen.(slot) <- g;
      let id = slot + (t.max_actors * g) in
      let rollback () =
        t.free.(tid) <- slot :: t.free.(tid);
        bump t.c.spawn_fail tid;
        None
      in
      match Q.create t.mm ~head_root:(2 * slot) ~tail_root:((2 * slot) + 1) ~tid with
      | exception (Mm.Out_of_memory | Mm.Out_of_nodes _) -> rollback ()
      | q -> (
          match
            (match (deadline, t.wheel) with
            | Some d, Some w -> Timer.schedule w ~tid ~deadline:d id
            | _ -> ());
            Hmap.insert t.registry ~tid id slot
          with
          | exception (Mm.Out_of_memory | Mm.Out_of_nodes _) ->
              ignore (Q.destroy q ~tid);
              rollback ()
          | _inserted ->
              t.mailbox.(slot) <- Some q;
              Atomic.set t.state.(slot) (id + 1);
              bump t.c.spawned tid;
              Some id))

(* The guard window: inflight up, check state, touch the queue,
   inflight down. Deliberately NOT exception-protected — a chaos
   crash inside the window must leave [inflight] raised, zombifying
   the slot, so its nodes stay in the audited custody classes instead
   of racing a concurrent destroy. *)
let send t ~tid ~dst v =
  match Hmap.lookup t.registry ~tid dst with
  | None ->
      bump t.c.send_drop tid;
      false
  | Some slot ->
      Atomic.incr t.inflight.(slot);
      let ok =
        if Atomic.get t.state.(slot) = dst + 1 then
          match t.mailbox.(slot) with
          | Some q -> (
              try
                Q.enqueue q ~tid v;
                true
              with Mm.Out_of_memory | Mm.Out_of_nodes _ -> false)
          | None -> false
        else false
      in
      Atomic.decr t.inflight.(slot);
      bump (if ok then t.c.sent else t.c.send_drop) tid;
      ok

let receive t ~tid ~self =
  let slot = slot_of t self in
  Atomic.incr t.inflight.(slot);
  let res =
    if Atomic.get t.state.(slot) = self + 1 then
      match t.mailbox.(slot) with Some q -> Q.dequeue q ~tid | None -> None
    else None
  in
  Atomic.decr t.inflight.(slot);
  bump (match res with Some _ -> t.c.received | None -> t.c.recv_empty) tid;
  res

(* Bounded wait for the guard window to clear. Under Sim a spinning
   fiber never yields to the fiber it waits for (the service atomics
   carry no scheduling points), so an unbounded spin would livelock;
   the zombie path is the escape hatch on both backends. *)
let spin_budget = 128

let retire t ~tid id =
  let slot = slot_of t id in
  if Atomic.compare_and_set t.state.(slot) (id + 1) (-(id + 1)) then begin
    ignore (Hmap.remove t.registry ~tid id);
    let rec wait n =
      if Atomic.get t.inflight.(slot) = 0 then begin
        (match t.mailbox.(slot) with
        | Some q ->
            let leftover = Q.destroy q ~tid in
            let i = tid * pad in
            t.c.discarded.(i) <- t.c.discarded.(i) + leftover
        | None -> ());
        t.mailbox.(slot) <- None;
        Atomic.set t.state.(slot) 0;
        t.free.(tid) <- slot :: t.free.(tid);
        bump t.c.retired tid
      end
      else if n >= spin_budget then
        (* Park the slot: still closing, mailbox intact, out of
           circulation until teardown. *)
        bump t.c.zombied tid
      else begin
        Domain.cpu_relax ();
        wait (n + 1)
      end
    in
    wait 0;
    true
  end
  else false

(* Fire every ripe ttl timer. Payloads are actor ids armed by [spawn
   ?deadline]; a timer that outlives its actor (manual retire first)
   is a no-op. Do not mix with driver-scheduled cohort payloads on the
   same wheel. *)
let tick t ~tid ~now =
  match t.wheel with
  | None -> 0
  | Some w ->
      let rec go n =
        match Timer.due w ~tid ~now with
        | None -> n
        | Some (_, id) -> go (if retire t ~tid id then n + 1 else n)
      in
      go 0

let live t =
  Array.fold_left (fun a s -> if Atomic.get s > 0 then a + 1 else a) 0 t.state

(* Quiescent teardown: adopt every slot — live, closing or zombie —
   destroy its mailbox and drain the wheel, leaving only anchored
   sentinels allocated. Callers then run the auditor on the manager. *)
let teardown t ~tid =
  let discarded = ref 0 in
  for slot = 0 to t.max_actors - 1 do
    (match t.mailbox.(slot) with
    | Some q -> discarded := !discarded + Q.destroy q ~tid
    | None -> ());
    t.mailbox.(slot) <- None;
    (match Atomic.get t.state.(slot) with
    | 0 -> ()
    | s ->
        if s > 0 then ignore (Hmap.remove t.registry ~tid (s - 1));
        Atomic.set t.state.(slot) 0);
    Atomic.set t.inflight.(slot) 0
  done;
  (match t.wheel with Some w -> ignore (Timer.drain w ~tid) | None -> ());
  ignore (Hmap.clear t.registry ~tid);
  !discarded

let probe t ~tid = Hmap.probe t.registry ~tid

let totals t =
  let sum a = Array.fold_left ( + ) 0 a in
  {
    spawned = sum t.c.spawned;
    spawn_fail = sum t.c.spawn_fail;
    sent = sum t.c.sent;
    send_drop = sum t.c.send_drop;
    received = sum t.c.received;
    recv_empty = sum t.c.recv_empty;
    retired = sum t.c.retired;
    zombied = sum t.c.zombied;
    discarded = sum t.c.discarded;
  }
