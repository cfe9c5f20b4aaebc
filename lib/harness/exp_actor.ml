(* E18: the million-mailbox actor service — the ROADMAP's end-to-end
   "millions of users" scenario. Every actor owns a Michael–Scott
   queue as its MPSC mailbox and the skiplist timer wheel drives ttl
   retirement — both drawing nodes from ONE manager, so the service's
   spawn/send/receive/retire churn IS the memory-scheme workload
   (Actor.Service).

   Four legs share one report:

     service  Native sweep, scheme x threads: pre-spawn [actors],
              then heavy mixed traffic (spawn/retire/send/receive/
              tick) with send latency sampled per-op; quiescent
              teardown must audit clean (leaked = 0).
     chaos    Native, real Domains: Chaos crashes one thread mid-send
              at a lifecycle-event boundary; survivors drain, the
              service tears down (adopting zombie mailboxes), and
              Recovery.run must reclaim the victim's stranded nodes
              with nothing leaked — bounded loss at service scale.
     sim      deterministic-scheduler miniature of the same protocol
              (Sched.Fault crash mid-traffic), with virtual-time ttl
              timers; audited + recovered like the chaos leg.
     million  full runs only: >= 1M actors on the native backend,
              send/receive traffic, wave retirement driven through
              the Pqueue timer wheel (one cohort timer per wave, not
              one per actor), audit.

   Send targets come from a published-id table indexed by slot: a
   sender reads the latest published id for a random slot and fires;
   if that actor retired meanwhile the send is a counted drop — the
   service's graceful path, not an error. *)

module Mm = Mm_intf
module Rng = Sched.Rng
module B = Atomics.Backend
module Service = Actor.Service
module Timer = Actor.Timer
open Exp_support

(* Per-thread bag of ids this thread spawned and still believes live
   (retire may have raced a ttl timer; stale ids are harmless). *)
module Bag = struct
  type t = { mutable buf : int array; mutable len : int }

  let create () = { buf = Array.make 64 0; len = 0 }

  let push b id =
    if b.len = Array.length b.buf then begin
      let nb = Array.make (2 * b.len) 0 in
      Array.blit b.buf 0 nb 0 b.len;
      b.buf <- nb
    end;
    b.buf.(b.len) <- id;
    b.len <- b.len + 1

  let pop b =
    if b.len = 0 then None
    else begin
      b.len <- b.len - 1;
      Some b.buf.(b.len)
    end
end

(* Capacity for a service of [actors] slots: the wheel's two
   sentinels, one mailbox sentinel per live actor, plus headroom for
   in-flight messages and armed timers. *)
let svc_capacity ~actors ~headroom = 2 + actors + headroom

(* One mixed-traffic worker: 6% spawn (a quarter with a ttl, including
   the occasional max_int timeout that must saturate, not die), 6%
   retire (own spawns only — the bag), 2% timer tick, 48% send
   (latency-sampled when [hist] is given), the rest receive-and-drain
   on a random published actor (any thread may run any actor). The
   receive share is what keeps the in-flight message population — and
   so the allocator — in steady state; sends to ids retired meanwhile
   are counted drops. *)
let traffic svc ~tid ~rng ~n ~published ~max_actors ?hist ~clock () =
  let bag = Bag.create () in
  let has_wheel = Service.wheel svc <> None in
  for _ = 1 to n do
    let r = Rng.int rng 100 in
    if r < 6 then begin
      let deadline =
        if has_wheel && Rng.int rng 4 = 0 then
          let timeout_ns =
            if Rng.int rng 8 = 0 then max_int
            else 1 lsl (10 + Rng.int rng 20)
          in
          Some (Timer.deadline ~now_ns:(clock ()) ~timeout_ns)
        else None
      in
      match Service.spawn ?deadline svc ~tid with
      | Some id ->
          Atomic.set published.(id mod max_actors) id;
          Bag.push bag id
      | None -> ()
    end
    else if r < 12 then (
      match Bag.pop bag with
      | Some id -> ignore (Service.retire svc ~tid id)
      | None -> ())
    else if r < 14 then ignore (Service.tick svc ~tid ~now:(clock ()))
    else if r < 62 then begin
      let dst = Atomic.get published.(Rng.int rng max_actors) in
      if dst >= 0 then
        match hist with
        | Some h ->
            let t0 = Runner.now_ns () in
            ignore (Service.send svc ~tid ~dst (Rng.int rng 1_000_000));
            Metrics.Hist.add h (Runner.now_ns () - t0)
        | None -> ignore (Service.send svc ~tid ~dst (Rng.int rng 1_000_000))
    end
    else begin
      let self = Atomic.get published.(Rng.int rng max_actors) in
      if self >= 0 then begin
        let drained = ref 0 in
        while
          !drained < 8 && Service.receive svc ~tid ~self <> None
        do
          incr drained
        done
      end
    end
  done

(* Pre-spawn [count] actors striped across threads (each thread's
   free-slot list serves its share), publishing every id. Legs with
   spawn/retire churn pre-spawn only a fraction of the slots, so the
   churn has free slots to work with. *)
let spawn_phase svc ~threads ~count ~actors ~published ~ids_by_slot =
  let counts = Workload.split_ops ~threads ~ops:count in
  Runner.run ~threads (fun ~tid ->
      for _ = 1 to counts.(tid) do
        match Service.spawn svc ~tid with
        | Some id ->
            let slot = id mod actors in
            ids_by_slot.(slot) <- id;
            Atomic.set published.(slot) id
        | None -> ()
      done)

let audit_cell ok = Report.Str (if ok then "ok" else "FAIL")

(* ------------------------------------------------------------------ *)
(* service leg: Native sweep, scheme x threads.                       *)
(* ------------------------------------------------------------------ *)

let service_leg spine ~scheme ~threads ~actors ~ops ~seed =
  let capacity = svc_capacity ~actors ~headroom:(max 4_096 (ops / 8)) in
  let cfg =
    Service.mm_config ~backend:B.Native ~threads ~capacity ~max_actors:actors
      ()
  in
  let mm = Registry.instantiate scheme cfg in
  Spine.wrap spine mm @@ fun () ->
  let svc = Service.create mm ~max_actors:actors ~seed ~tid:0 in
  let published = Array.init actors (fun _ -> Atomic.make (-1)) in
  let ids_by_slot = Array.make actors (-1) in
  let prespawn = max 1 (actors * 3 / 5) in
  let spawn_res =
    spawn_phase svc ~threads ~count:prespawn ~actors ~published ~ids_by_slot
  in
  let counts = Workload.split_ops ~threads ~ops in
  let hists = Array.init threads (fun _ -> Metrics.Hist.create ()) in
  let rngs = Workload.per_thread ~threads ~seed:(seed + 1) (fun rng -> rng) in
  let result =
    Runner.run ~threads (fun ~tid ->
        traffic svc ~tid ~rng:rngs.(tid) ~n:counts.(tid) ~published
          ~max_actors:actors ~hist:hists.(tid) ~clock:Runner.now_ns ())
  in
  (* Flush per-thread residue (epoch advances) before the audit — the
     workers are gone. *)
  drain_survivors mm ~survivors:(List.init threads Fun.id);
  let t = Service.totals svc in
  let discarded = Service.teardown svc ~tid:0 in
  let audit = Audit.run mm in
  let h = Metrics.Hist.create () in
  Array.iter (fun h' -> Metrics.Hist.merge_into h h') hists;
  [
    Report.Str scheme;
    Report.Str "service";
    Report.Int threads;
    Report.Int actors;
    Report.Ops (Runner.throughput ~ops:prespawn spawn_res);
    Report.Ops (Runner.throughput ~ops result);
    Report.Ns (Metrics.Hist.percentile h 0.50);
    Report.Ns (Metrics.Hist.percentile h 0.99);
    Report.Int t.Service.zombied;
    Report.Int (t.Service.send_drop + t.Service.spawn_fail);
    Report.Int (discarded + t.Service.discarded);
    Report.Int 0;
    Report.Pct 100.;
    Report.Int audit.Audit.leaked;
    audit_cell (Audit.ok audit);
  ]

(* ------------------------------------------------------------------ *)
(* chaos leg: crash one thread mid-send on real Domains, recover.     *)
(* ------------------------------------------------------------------ *)

let chaos_leg spine ~scheme ~seeds ~threads ~actors ~ops ~seed:_ =
  let victim = threads - 1 in
  let capacity = svc_capacity ~actors ~headroom:(max 2_048 (ops / 8)) in
  let runs = ref 0
  and skipped = ref 0
  and held_pre = ref 0
  and held_post = ref 0
  and leaked = ref 0
  and pct_min = ref max_int
  and zombied = ref 0
  and drops = ref 0
  and discarded = ref 0
  and audited = ref 0
  and audits_ok = ref 0
  and msgs = ref 0. in
  for s = 0 to seeds - 1 do
    incr runs;
    let cfg =
      Service.mm_config ~backend:B.Native ~threads ~capacity
        ~max_actors:actors ()
    in
    let mm = Registry.instantiate scheme cfg in
    Spine.wrap spine mm @@ fun () ->
    let svc =
      Service.create mm ~max_actors:actors ~seed:(71_000 + s) ~tid:0
    in
    let published = Array.init actors (fun _ -> Atomic.make (-1)) in
    let ids_by_slot = Array.make actors (-1) in
    ignore
      (spawn_phase svc ~threads
         ~count:(max 1 (actors * 3 / 5))
         ~actors ~published ~ids_by_slot);
    let plan =
      [ Sched.Fault.crash ~tid:victim ~at_step:(60 + (37 * s)) ]
    in
    let chaos = Chaos.of_plan ~threads plan in
    let counts = Workload.split_ops ~threads ~ops in
    let rngs =
      Workload.per_thread ~threads ~seed:(72_000 + s) (fun rng -> rng)
    in
    let result =
      Chaos.run chaos (fun ~tid ->
          traffic svc ~tid ~rng:rngs.(tid) ~n:counts.(tid) ~published
            ~max_actors:actors ~clock:Runner.now_ns ())
    in
    msgs := max !msgs (Runner.throughput ~ops result);
    match Chaos.crashed chaos with
    | [] -> incr skipped
    | dead ->
        let by = List.hd (Chaos.survivors chaos) in
        drain_survivors mm ~survivors:(Chaos.survivors chaos);
        let disc = Service.teardown svc ~tid:by in
        let t = Service.totals svc in
        zombied := !zombied + t.Service.zombied;
        drops := !drops + t.Service.send_drop;
        discarded := !discarded + disc + t.Service.discarded;
        let o = Recovery.run ~dead ~by mm in
        held_pre := max !held_pre o.Recovery.pre.Audit.crash_held;
        held_post := max !held_post o.Recovery.post.Audit.crash_held;
        leaked := max !leaked o.Recovery.post.Audit.leaked;
        let pct =
          if o.Recovery.pre.Audit.crash_held = 0 then 100
          else
            100 * o.Recovery.post.Audit.recovered
            / o.Recovery.pre.Audit.crash_held
        in
        pct_min := min !pct_min pct;
        incr audited;
        if Audit.ok o.Recovery.post then incr audits_ok
  done;
  [
    Report.Str scheme;
    Report.Str "chaos";
    Report.Int threads;
    Report.Int actors;
    Report.Ops 0.;
    Report.Ops !msgs;
    Report.Ns 0;
    Report.Ns 0;
    Report.Int !zombied;
    Report.Int !drops;
    Report.Int !discarded;
    Report.Int !held_pre;
    Report.Pct (if !pct_min = max_int then 100. else float_of_int !pct_min);
    Report.Int !leaked;
    Report.Str
      (if !audited = 0 then "n/a"
       else if !audits_ok = !audited then "ok"
       else Printf.sprintf "FAIL(%d/%d)" !audits_ok !audited);
  ]

(* ------------------------------------------------------------------ *)
(* sim leg: the same protocol, miniature, on the deterministic        *)
(* scheduler with virtual-time ttl timers.                            *)
(* ------------------------------------------------------------------ *)

let sim_leg spine ~scheme ~seeds ~seed =
  let threads = 3 and actors = 12 and ops = 50 in
  let victim = threads - 1 in
  let capacity = svc_capacity ~actors ~headroom:256 in
  let runs = ref 0
  and skipped = ref 0
  and held_pre = ref 0
  and leaked = ref 0
  and pct_min = ref max_int
  and zombied = ref 0
  and drops = ref 0
  and audited = ref 0
  and audits_ok = ref 0 in
  for s = 0 to seeds - 1 do
    incr runs;
    let cfg =
      Service.mm_config ~backend:B.Sim ~threads ~capacity ~max_actors:actors
        ()
    in
    let mm = Registry.instantiate scheme cfg in
    Spine.wrap spine mm @@ fun () ->
    let svc = Service.create mm ~max_actors:actors ~seed:(seed + s) ~tid:0 in
    let published = Array.init actors (fun _ -> Atomic.make (-1)) in
    let vclock = ref 0 in
    let clock () =
      incr vclock;
      !vclock
    in
    let rngs =
      Workload.per_thread ~threads ~seed:(seed + (s * 13) + 1) (fun rng ->
          rng)
    in
    let body tid =
      (* The victim churns forever, so the crash always fires (or the
         run hits the step cap and is skipped) — the E12 protocol. *)
      let n = if tid = victim then max_int else ops in
      traffic svc ~tid ~rng:rngs.(tid) ~n ~published ~max_actors:actors
        ~clock ()
    in
    let rng = Rng.create (seed + (s * 17) + 2) in
    let faults =
      [ Sched.Fault.crash ~tid:victim ~at_step:(200 + Rng.int rng 400) ]
    in
    let policy = Sched.Policy.random ~seed:(seed + (s * 7) + 3) in
    match
      Sched.Engine.run ~max_steps:600_000 ~faults ~threads ~policy body
    with
    | _ ->
        let survivors =
          List.filter (fun t -> t <> victim) (List.init threads Fun.id)
        in
        drain_survivors mm ~survivors;
        let disc = Service.teardown svc ~tid:0 in
        ignore disc;
        let t = Service.totals svc in
        zombied := !zombied + t.Service.zombied;
        drops := !drops + t.Service.send_drop;
        let o = Recovery.run ~dead:[ victim ] ~by:0 mm in
        held_pre := max !held_pre o.Recovery.pre.Audit.crash_held;
        leaked := max !leaked o.Recovery.post.Audit.leaked;
        let pct =
          if o.Recovery.pre.Audit.crash_held = 0 then 100
          else
            100 * o.Recovery.post.Audit.recovered
            / o.Recovery.pre.Audit.crash_held
        in
        pct_min := min !pct_min pct;
        incr audited;
        if Audit.ok o.Recovery.post then incr audits_ok
    | exception Sched.Engine.Out_of_steps -> incr skipped
  done;
  [
    Report.Str scheme;
    Report.Str "sim";
    Report.Int threads;
    Report.Int actors;
    Report.Ops 0.;
    Report.Ops 0.;
    Report.Ns 0;
    Report.Ns 0;
    Report.Int !zombied;
    Report.Int !drops;
    Report.Int 0;
    Report.Int !held_pre;
    Report.Pct (if !pct_min = max_int then 100. else float_of_int !pct_min);
    Report.Int !leaked;
    Report.Str
      (if !audited = 0 then "n/a"
       else if !audits_ok = !audited then "ok"
       else Printf.sprintf "FAIL(%d/%d)" !audits_ok !audited);
  ]

(* ------------------------------------------------------------------ *)
(* million leg: >= 1M actors, wave retirement through the timer       *)
(* wheel (one cohort timer per wave — the wheel at its real job,      *)
(* without a million timer nodes).                                    *)
(* ------------------------------------------------------------------ *)

let million_leg spine ~scheme ~threads ~actors ~traffic_ops ~waves ~seed =
  (* No actor retires during traffic and most receives find an empty
     mailbox, so nearly every send holds its node until teardown: the
     headroom is the expected send count (60% of the traffic), plus
     1/64 of it for the coin's spread and the domain caches, plus the
     cohort timers. *)
  let sends = traffic_ops * 60 / 100 in
  let headroom = sends + (sends / 64) + waves in
  let capacity = svc_capacity ~actors ~headroom in
  let cfg =
    Service.mm_config ~backend:B.Native ~shards:4 ~batch:32 ~threads
      ~capacity ~max_actors:actors ()
  in
  let mm = Registry.instantiate scheme cfg in
  Spine.wrap spine mm @@ fun () ->
  let svc = Service.create mm ~max_actors:actors ~seed ~tid:0 in
  let published = Array.init actors (fun _ -> Atomic.make (-1)) in
  let ids_by_slot = Array.make actors (-1) in
  let spawn_res =
    spawn_phase svc ~threads ~count:actors ~actors ~published ~ids_by_slot
  in
  (* One cohort timer per wave; wave w owns slots congruent to w. *)
  (match Service.wheel svc with
  | Some w ->
      for wv = 0 to waves - 1 do
        Timer.schedule w ~tid:0 ~deadline:wv wv
      done
  | None -> ());
  (* Send/receive-only traffic: ids are stable, so senders target the
     spawn-time id table directly. *)
  let counts = Workload.split_ops ~threads ~ops:traffic_ops in
  let hists = Array.init threads (fun _ -> Metrics.Hist.create ()) in
  let rngs = Workload.per_thread ~threads ~seed:(seed + 1) (fun rng -> rng) in
  let result =
    Runner.run ~threads (fun ~tid ->
        let rng = rngs.(tid) and h = hists.(tid) in
        for _ = 1 to counts.(tid) do
          if Rng.int rng 100 < 60 then begin
            let dst = ids_by_slot.(Rng.int rng actors) in
            let t0 = Runner.now_ns () in
            ignore (Service.send svc ~tid ~dst (Rng.int rng 1_000_000));
            Metrics.Hist.add h (Runner.now_ns () - t0)
          end
          else
            let self = ids_by_slot.(Rng.int rng actors) in
            let drained = ref 0 in
            while
              !drained < 8 && Service.receive svc ~tid ~self <> None
            do
              incr drained
            done
        done)
  in
  (* Retirement driven by the wheel: pop each due wave, retire its
     cohort. *)
  let t0 = Runner.now_ns () in
  let retired = ref 0 in
  (match Service.wheel svc with
  | Some w ->
      let rec drive () =
        match Timer.due w ~tid:0 ~now:waves with
        | None -> ()
        | Some (_, wv) ->
            let slot = ref wv in
            while !slot < actors do
              if Service.retire svc ~tid:0 ids_by_slot.(!slot) then
                incr retired;
              slot := !slot + waves
            done;
            drive ()
      in
      drive ()
  | None ->
      for slot = 0 to actors - 1 do
        if Service.retire svc ~tid:0 ids_by_slot.(slot) then incr retired
      done);
  let retire_ns = Runner.now_ns () - t0 in
  let t = Service.totals svc in
  let discarded = Service.teardown svc ~tid:0 in
  let audit = Audit.run mm in
  let h = Metrics.Hist.create () in
  Array.iter (fun h' -> Metrics.Hist.merge_into h h') hists;
  [
    Report.Str scheme;
    Report.Str
      (Printf.sprintf "million(ret %.2gM/s)"
         (float_of_int !retired /. (float_of_int (max 1 retire_ns) /. 1e9)
         /. 1e6));
    Report.Int threads;
    Report.Int actors;
    Report.Ops (Runner.throughput ~ops:actors spawn_res);
    Report.Ops (Runner.throughput ~ops:traffic_ops result);
    Report.Ns (Metrics.Hist.percentile h 0.50);
    Report.Ns (Metrics.Hist.percentile h 0.99);
    Report.Int t.Service.zombied;
    Report.Int (t.Service.send_drop + t.Service.spawn_fail);
    Report.Int (discarded + t.Service.discarded);
    Report.Int 0;
    Report.Pct 100.;
    Report.Int audit.Audit.leaked;
    audit_cell (Audit.ok audit);
  ]

(* ------------------------------------------------------------------ *)

let e18 ?(schemes = Registry.names) ?(threads_list = [ 2; 4 ])
    ?(actors = 10_000) ?(ops = 200_000) ?(chaos_seeds = 2)
    ?(chaos_threads = 4) ?(chaos_actors = 512) ?(chaos_ops = 24_000)
    ?(sim_seeds = 2) ?(million_actors = 1_000_000)
    ?(million_traffic = 2_000_000) ?(waves = 64)
    ?(million_schemes = [ "wfrc" ]) ?(seed = 61_000) () =
  let spine = Spine.create () in
  let rows = ref [] in
  List.iter
    (fun scheme ->
      List.iter
        (fun threads ->
          rows :=
            service_leg spine ~scheme ~threads ~actors ~ops ~seed :: !rows)
        threads_list;
      rows :=
        chaos_leg spine ~scheme ~seeds:chaos_seeds ~threads:chaos_threads
          ~actors:chaos_actors ~ops:chaos_ops ~seed
        :: !rows;
      rows := sim_leg spine ~scheme ~seeds:sim_seeds ~seed :: !rows)
    schemes;
  List.iter
    (fun scheme ->
      rows :=
        million_leg spine ~scheme ~threads:4 ~actors:million_actors
          ~traffic_ops:million_traffic ~waves ~seed
        :: !rows)
    million_schemes;
  Report.make ~id:"E18"
    ~title:
      (Printf.sprintf
         "actor service: mailbox runtime on the WFRC structures (%d-actor \
          sweep, chaos crash-mid-send, %s)"
         actors
         (match million_schemes with
         | [] -> "million leg off"
         | _ -> Printf.sprintf "%d-actor million leg" million_actors))
    ~cols:
      [
        Report.dim "scheme";
        Report.dim "leg";
        Report.dim "threads";
        Report.dim "actors";
        Report.measure ~unit_:"ops/s" "spawn/s";
        Report.measure ~unit_:"ops/s" "traffic/s";
        Report.measure ~unit_:"ns" "send p50";
        Report.measure ~unit_:"ns" "send p99";
        Report.measure ~unit_:"slots" "zombied";
        Report.measure ~unit_:"msgs" "drops";
        Report.measure ~unit_:"msgs" "discarded";
        Report.measure ~unit_:"nodes" "crash_held(pre)";
        Report.measure ~unit_:"%" "recovered(min)";
        Report.measure ~unit_:"nodes" "leaked";
        Report.measure "audit";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed ~backend:B.Native
         ~params:
           [
             ("actors", string_of_int actors);
             ("ops", string_of_int ops);
             ("chaos_seeds", string_of_int chaos_seeds);
             ("sim_seeds", string_of_int sim_seeds);
             ( "million_actors",
               match million_schemes with
               | [] -> "0"
               | _ -> string_of_int million_actors );
           ]
         ())
    ~notes:
      [
        "service leg: traffic/s counts mixed ops (6% spawn, 6% retire, 2% \
         tick, 48% send, 38% receive-drain); send p50/p99 are per-op \
         latencies; teardown must audit clean (leaked = 0)";
        "drops: sends to already-retired ids (counted, never \
         use-after-free) plus allocator-exhausted sends/spawns; \
         discarded: undelivered messages destroyed with their mailbox";
        "zombied: slots whose retire found senders still in the guard \
         window (e.g. crashed there) — parked, then adopted at teardown; \
         the chaos/sim legs rely on this for crash-mid-send custody";
        "chaos leg: one thread crashes mid-send at a lifecycle-event \
         boundary (Chaos); after teardown, Recovery.run must return the \
         stranded nodes — recovered(min) is the worst-case share of \
         pre-recovery crash_held reclaimed, audit requires leaked = 0";
        "sim leg: the same protocol on the deterministic scheduler with \
         virtual-time ttl timers (spawn ?deadline / tick)";
        "timers need reference counting (the skiplist wheel — the \
         paper's §1 gap): hp/ebr run the service without ttl/cohort \
         timers; the million leg's wave retirement walks slots directly \
         there";
        "million leg: spawn/s covers the pre-spawn of every actor; \
         retirement is driven by one cohort timer per wave through the \
         Pqueue wheel (rate shown in the leg label)";
      ]
    (List.rev !rows)

let specs =
  [
    Exp.spec ~id:"e18"
      ~descr:"actor service: million mailboxes over one manager (+chaos)"
      (fun { Exp.quick } ->
        if quick then
          e18
            ~schemes:[ "wfrc"; "hp" ]
            ~threads_list:[ 2 ] ~ops:60_000 ~chaos_seeds:1 ~chaos_threads:3
            ~chaos_actors:256 ~chaos_ops:8_000 ~sim_seeds:1
            ~million_schemes:[] ()
        else e18 ());
  ]
