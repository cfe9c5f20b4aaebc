(* The actor/mailbox runtime (lib/actor) and the bugfix sweep that
   rode along with it: MPSC mailbox linearizability across every
   scheme, crash-mid-send custody under the deterministic scheduler,
   timer-deadline saturation, the one-node cost of an actor, mailbox
   teardown idempotency and the per-thread op split. *)

open Helpers
module B = Atomics.Backend
module Service = Actor.Service
module Timer = Actor.Timer
module Queue = Structures.Queue
module Audit = Harness.Audit
module Recovery = Harness.Recovery
module Workload = Harness.Workload
module Rng = Sched.Rng
module Queue_check = Lincheck.Checker.Make (Lincheck.Specs.Queue_ops)

(* ---------------- MPSC mailbox lincheck bed ------------------------- *)

(* The service uses each Queue as an MPSC mailbox: any thread
   enqueues, the (current) owner dequeues, and ownership itself can
   migrate. The bed runs producer+consumer on one thread against a
   pure producer on the other — the smallest history shape with both
   contended enqueues and an owner racing them. *)
let mk_mailbox scheme () =
  let cfg = small_cfg ~threads:2 ~capacity:16 () in
  let mm = mm_of scheme cfg in
  let q = Queue.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
  let hist = Lincheck.History.create ~threads:2 in
  let enq tid v =
    ignore
      (Lincheck.History.record hist ~tid (Lincheck.Specs.Queue_ops.Enq v)
         (fun () ->
           Queue.enqueue q ~tid v;
           Lincheck.Specs.Queue_ops.Unit))
  and deq tid =
    ignore
      (Lincheck.History.record hist ~tid Lincheck.Specs.Queue_ops.Deq
         (fun () ->
           match Queue.dequeue q ~tid with
           | Some v -> Lincheck.Specs.Queue_ops.Value v
           | None -> Lincheck.Specs.Queue_ops.Empty))
  in
  let body tid =
    if tid = 0 then begin
      enq 0 10;
      deq 0;
      deq 0
    end
    else begin
      enq 1 20;
      enq 1 21
    end
  in
  let check () =
    if not (Queue_check.check (Lincheck.History.events hist)) then
      failwith "mailbox history not linearizable"
  in
  (body, check)

let mailbox_tests =
  List.map
    (fun scheme ->
      tc (scheme ^ ": MPSC mailbox sweeps linearizable") (fun () ->
          sweep_ok ~runs:150 ~seed:64_000 ~threads:2 (mk_mailbox scheme)))
    all_schemes

(* ---------------- Crash-mid-send custody (Sim fault sweep) ---------- *)

(* E18's sim leg, miniature: the victim sends forever and is crashed
   mid-traffic; after the survivors drain and the service tears down,
   recovery must leave nothing leaked — the stranded mailbox nodes land
   in the crash_held class and come back.

   Before recovery the RC schemes leak nothing: a node the victim held
   is counted, so the audit files it as crash_held. hp and ebr have
   orphan windows (DESIGN.md §7.1) where a node is in no custody class
   until [Mm_intf.Orphan] sweeps it at recovery: hp's alloc pops a node
   before it publishes the hazard, hp's scan drops nodes from [retired]
   before it pushes them to the pool, and ebr's alloc and collect have
   the same shape. One crashed enqueue or dequeue holds at most two
   such nodes in hand, so their pre-recovery [leaked] is bounded by 2,
   and recovery must still bring it to 0. *)
let orphan_bound = function "hp" | "ebr" -> 2 | _ -> 0

let crash_mid_send scheme ~seed =
  let threads = 3 and actors = 8 in
  let victim = threads - 1 in
  let capacity = 2 + actors + 128 in
  let cfg =
    Service.mm_config ~backend:B.Sim ~threads ~capacity ~max_actors:actors ()
  in
  let mm = mm_of scheme cfg in
  let svc = Service.create mm ~max_actors:actors ~seed ~tid:0 in
  let published = Array.init actors (fun _ -> Atomic.make (-1)) in
  for _ = 1 to 5 do
    match Service.spawn svc ~tid:0 with
    | Some id -> Atomic.set published.(id mod actors) id
    | None -> ()
  done;
  let rngs = Workload.per_thread ~threads ~seed:(seed + 1) (fun rng -> rng) in
  let body tid =
    let rng = rngs.(tid) in
    let n = if tid = victim then max_int else 40 in
    for _ = 1 to n do
      let dst = Atomic.get published.(Rng.int rng actors) in
      if dst >= 0 then
        if Rng.int rng 3 = 0 then ignore (Service.receive svc ~tid ~self:dst)
        else ignore (Service.send svc ~tid ~dst 7)
    done
  in
  let faults = [ Sched.Fault.crash ~tid:victim ~at_step:(150 + seed) ] in
  let pre = Printf.sprintf "%s seed %d: " scheme seed in
  match
    Sched.Engine.run ~max_steps:300_000 ~faults ~threads
      ~policy:(Sched.Policy.random ~seed:(seed + 2))
      body
  with
  | _ ->
      Harness.Exp_support.drain_survivors mm ~survivors:[ 0; 1 ];
      ignore (Service.teardown svc ~tid:0);
      let o = Recovery.run ~dead:[ victim ] ~by:0 mm in
      let leaked = o.Recovery.pre.Audit.leaked in
      if leaked > orphan_bound scheme then
        Alcotest.failf "%spre-recovery leaked %d > %d" pre leaked
          (orphan_bound scheme);
      check_int (pre ^ "post-recovery leaked") 0 o.Recovery.post.Audit.leaked;
      check_bool (pre ^ "post-recovery audit ok") true
        (Audit.ok o.Recovery.post)
  | exception Sched.Engine.Out_of_steps ->
      (* Only the lock-based scheme may block here: the victim died
         holding the lock and the survivors spin forever — the
         paper's §1 blocking argument (E12). Non-blocking schemes
         must always finish. *)
      if scheme <> "lockrc" then
        Alcotest.fail (pre ^ "engine ran out of steps")

let fault_tests =
  [
    tc "crash-mid-send strands crash_held, recovers leak-free (all schemes)"
      (fun () ->
        List.iter
          (fun scheme ->
            for seed = 0 to 63 do
              crash_mid_send scheme ~seed
            done)
          all_schemes);
  ]

(* ---------------- Send by slot: budgets and negative ids ----------- *)

(* [send] derives the slot from the id and lets the slot's state word
   reject a dead id, so a send to a live actor derefs only inside its
   enqueue (the tail) and a drop derefs nothing. *)
let send_tests =
  let setup () =
    let cfg =
      Service.mm_config ~backend:B.Sim ~threads:1 ~capacity:64 ~max_actors:2
        ()
    in
    let mm = mm_of "wfrc" cfg in
    (mm, Service.create mm ~max_actors:2 ~seed:5 ~tid:0)
  in
  let spawn svc =
    match Service.spawn svc ~tid:0 with
    | Some id -> id
    | None -> Alcotest.fail "spawn failed"
  in
  [
    tc "wfrc: send to a live actor costs 1 deref; a drop costs none"
      (fun () ->
        let mm, svc = setup () in
        let derefs f =
          let ctr = Mm.counters mm in
          let d0 = Atomics.Counters.(total ctr Deref) in
          let r = f () in
          (r, Atomics.Counters.(total ctr Deref) - d0)
        in
        let send dst = derefs (fun () -> Service.send svc ~tid:0 ~dst 9) in
        let a = spawn svc and b = spawn svc in
        check_bool "live send delivered, 1 deref" true (send a = (true, 1));
        check_bool "retire b" true (Service.retire svc ~tid:0 b);
        check_bool "retired id dropped, 0 derefs" true (send b = (false, 0));
        check_bool "retire a" true (Service.retire svc ~tid:0 a);
        let a' = spawn svc in
        check_int "slot recycled" (a mod 2) (a' mod 2);
        check_bool "recycled slot's old id dropped, 0 derefs" true
          (send a = (false, 0));
        check_bool "negative id dropped, 0 derefs" true (send (-2) = (false, 0));
        check_bool "new id delivered" true (send a' = (true, 1));
        let tot = Service.totals svc in
        check_int "sent" 2 tot.Service.sent;
        check_int "send_drop" 3 tot.Service.send_drop;
        ignore (Service.teardown svc ~tid:0));
    tc "negative ids are turned away by send, receive and retire" (fun () ->
        let _, svc = setup () in
        let a = spawn svc in
        List.iter
          (fun id ->
            let pre = Printf.sprintf "id %d: " id in
            check_bool (pre ^ "send drops") false
              (Service.send svc ~tid:0 ~dst:id 1);
            check_bool (pre ^ "receive is empty") true
              (Service.receive svc ~tid:0 ~self:id = None);
            check_bool (pre ^ "retire refuses") false
              (Service.retire svc ~tid:0 id))
          [ -1; -2; -3; min_int ];
        let tot = Service.totals svc in
        check_int "drops counted" 4 tot.Service.send_drop;
        check_int "empty receives counted" 4 tot.Service.recv_empty;
        check_int "nothing retired" 0 tot.Service.retired;
        check_bool "live actor untouched" true
          (Service.send svc ~tid:0 ~dst:a 5
          && Service.receive svc ~tid:0 ~self:a = Some 5);
        ignore (Service.teardown svc ~tid:0));
  ]

(* ---------------- Timer-deadline saturation ------------------------- *)

let timer_tests =
  [
    tc "deadline saturates into the skiplist key range" (fun () ->
        (* overflow past max_int degrades to "effectively never" *)
        check_int "max timeout clamps" (max_int - 1)
          (Timer.deadline ~now_ns:0 ~timeout_ns:max_int);
        check_int "overflowing sum clamps"
          (max_int - 1)
          (Timer.deadline ~now_ns:(max_int - 5) ~timeout_ns:max_int);
        (* the reserved sentinel keys are never produced *)
        let lo = Timer.deadline ~now_ns:min_int ~timeout_ns:0 in
        check_bool "low end above min_int" true (lo > min_int);
        let d = Timer.deadline ~now_ns:100 ~timeout_ns:23 in
        check_int "ordinary sums untouched" 123 d);
    tc "boundary deadlines are schedulable; raw max_int still rejected"
      (fun () ->
        let cfg =
          Service.mm_config ~backend:B.Sim ~threads:1 ~capacity:64
            ~max_actors:4 ()
        in
        let mm = mm_of "wfrc" cfg in
        let svc = Service.create mm ~max_actors:4 ~seed:7 ~tid:0 in
        (match Service.wheel svc with
        | None -> Alcotest.fail "wfrc service must have a wheel"
        | Some w ->
            Timer.schedule w ~tid:0
              ~deadline:(Timer.deadline ~now_ns:0 ~timeout_ns:max_int)
              1;
            Timer.schedule w ~tid:0
              ~deadline:(Timer.deadline ~now_ns:min_int ~timeout_ns:0)
              2;
            fails_with ~substring:"reserved" (fun () ->
                Timer.schedule w ~tid:0 ~deadline:max_int 3);
            check_int "both boundary timers drain" 2
              (List.length (Timer.drain w ~tid:0)));
        ignore (Service.teardown svc ~tid:0));
  ]

(* ---------------- Node cost of an actor --------------------------- *)

(* An actor holds one node, its mailbox's sentinel: the service keeps
   no per-actor directory, so k spawns take exactly k nodes from the
   manager and retiring them all gives every one back. *)
let cost_tests =
  [
    tc "wfrc: an actor costs one node; create checks the root layout"
      (fun () ->
        let actors = 8 in
        let cfg =
          Service.mm_config ~backend:B.Sim ~threads:1 ~capacity:64
            ~max_actors:actors ()
        in
        let mm = mm_of "wfrc" cfg in
        let svc = Service.create mm ~max_actors:actors ~seed:3 ~tid:0 in
        let base = Mm.free_count mm in
        let ids =
          List.init actors (fun k ->
              match Service.spawn svc ~tid:0 with
              | Some id ->
                  check_int
                    (Printf.sprintf "free after %d spawns" (k + 1))
                    (base - k - 1) (Mm.free_count mm);
                  id
              | None -> Alcotest.fail "spawn failed")
        in
        List.iter
          (fun id -> check_bool "retire" true (Service.retire svc ~tid:0 id))
          ids;
        check_int "retire gives every node back" base (Mm.free_count mm);
        ignore (Service.teardown svc ~tid:0);
        check_bool "teardown audit clean" true (Audit.ok (Audit.run mm));
        let short =
          Mm.config ~backend:B.Sim ~threads:1 ~capacity:64 ~num_links:4
            ~num_data:3 ~num_roots:(2 * actors) ()
        in
        fails_with ~substring:"Invalid_argument" (fun () ->
            Service.create (mm_of "wfrc" short) ~max_actors:actors ~seed:3
              ~tid:0));
  ]

(* ---------------- Mailbox teardown idempotency ---------------------- *)

let destroy_tests =
  [
    tc "destroy is idempotent and finishes a crashed destroy (all schemes)"
      (fun () ->
        List.iter
          (fun scheme ->
            let cfg = small_cfg ~threads:1 ~capacity:16 () in
            let mm = mm_of scheme cfg in
            let q = Queue.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
            Queue.enqueue q ~tid:0 1;
            Queue.enqueue q ~tid:0 2;
            check_int (scheme ^ ": leftovers discarded") 2
              (Queue.destroy q ~tid:0);
            check_int (scheme ^ ": second destroy is a no-op") 0
              (Queue.destroy q ~tid:0);
            (* a destroyer that crashed between the two root stores:
               head already null, tail still pinning the sentinel *)
            let q2 = Queue.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
            let arena = Mm.arena mm in
            Mm.store_link mm ~tid:0 (Arena.root_addr arena 0) Value.null;
            check_int (scheme ^ ": adopting destroy finishes the clearing")
              0
              (Queue.destroy q2 ~tid:0);
            let r = Audit.run mm in
            check_int (scheme ^ ": nothing reachable") 0 r.Audit.reachable;
            check_int (scheme ^ ": nothing leaked") 0 r.Audit.leaked)
          all_schemes);
  ]

(* ---------------- Workload split (completed-ops rounding) ----------- *)

let split_tests =
  [
    tc "split_ops: completed equals requested over odd combos" (fun () ->
        List.iter
          (fun (threads, ops) ->
            let c = Workload.split_ops ~threads ~ops in
            check_int
              (Printf.sprintf "%d threads / %d ops sum" threads ops)
              ops
              (Array.fold_left ( + ) 0 c);
            let mx = Array.fold_left max 0 c
            and mn = Array.fold_left min max_int c in
            check_bool "spread stays within one op" true (mx - mn <= 1))
          [
            (3, 200_000);
            (7, 199_999);
            (6, 1);
            (4, 0);
            (5, 23);
            (16, 1_000_003);
          ]);
  ]

let suite =
  mailbox_tests @ fault_tests @ send_tests @ timer_tests @ cost_tests
  @ destroy_tests @ split_tests
