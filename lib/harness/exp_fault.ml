(* Fault-injection family: E12 (bounded loss under crashes, with the
   completed/oom/stalled tally of which schemes a crashed peer can
   block) and E13 (stall storm). *)

module Mm = Mm_intf
module Rng = Sched.Rng
open Exp_support

(* ------------------------------------------------------------------ *)
(* E12: bounded loss under crashes — the fault-injection layer plus   *)
(* the auditor. One thread is crashed mid-operation by a Fault plan   *)
(* (left unwound: its announcements, hazards and references stay in   *)
(* place); survivors finish and drain, and the auditor partitions     *)
(* every node. The paper's claim: a crashed thread strands at most an *)
(* O(N^2)-envelope of nodes under WFRC, independent of how long the   *)
(* survivors keep running — while under EBR the crashed thread pins   *)
(* the epoch and the loss grows with survivor work until the arena    *)
(* is exhausted.                                                      *)
(* ------------------------------------------------------------------ *)

(* E12/E13 default to the seeded scheme set: their reports embed
   cross-scheme Spine totals, so adding a scheme to the default sweep
   would perturb the seeded baselines. wfrc_deferred is audited under
   crashes by E16, the chaos tests and E17 instead. *)
let e12 ?(schemes = Registry.seeded_names) ?(ops_list = [ 8; 24; 72 ])
    ?(seeds = 10)
    ?(seed = 43_000) () =
  let threads = 3 and capacity = 48 in
  let victim = threads - 1 in
  let spine = Spine.create () in
  let rows = ref [] in
  List.iter
    (fun scheme ->
      List.iter
        (fun ops ->
          let completed = ref 0
          and oom_runs = ref 0
          and stalled = ref 0
          and audited = ref 0
          and audits_ok = ref 0
          and max_lost = ref 0
          and max_crash_held = ref 0
          and max_leaked = ref 0
          and bound = ref 0 in
          for s = 0 to seeds - 1 do
            let cfg =
              Mm.config ~threads ~capacity ~num_links:1 ~num_data:1
                ~num_roots:1 ()
            in
            let mm = Registry.instantiate scheme cfg in
            Spine.wrap spine mm @@ fun () ->
            let arena = Mm.arena mm in
            let root = Shmem.Arena.root_addr arena 0 in
            let a = Mm.alloc mm ~tid:0 in
            Mm.store_link mm ~tid:0 root a;
            Mm.release mm ~tid:0 a;
            let oom = ref false in
            let body tid =
              if tid = victim then
                while true do
                  churn_op mm ~root ~oom ~tid
                done
              else
                for _ = 1 to ops do
                  churn_op mm ~root ~oom ~tid
                done
            in
            let rng = Rng.create (seed + s) in
            let faults =
              [ Sched.Fault.crash ~tid:victim ~at_step:(30 + Rng.int rng 200) ]
            in
            let policy = Sched.Policy.random ~seed:(seed + (s * 7) + 1) in
            match
              Sched.Engine.run ~max_steps:120_000 ~faults ~threads ~policy
                body
            with
            | _ ->
                if !oom then incr oom_runs else incr completed;
                drain_survivors mm ~survivors:[ 0; 1 ];
                let r = Audit.run ~crashed:[ victim ] mm in
                incr audited;
                if Audit.ok r then incr audits_ok;
                max_lost := max !max_lost r.Audit.lost;
                max_crash_held := max !max_crash_held r.Audit.crash_held;
                max_leaked := max !max_leaked r.Audit.leaked;
                bound := r.Audit.loss_bound
            | exception Sched.Engine.Out_of_steps ->
                (* survivors never reached quiescence (lockrc: the
                   victim died holding the lock) — nothing to audit *)
                incr stalled
          done;
          rows :=
            [
              Report.Str scheme;
              Report.Int ops;
              Report.Int !completed;
              Report.Int !oom_runs;
              Report.Int !stalled;
              Report.Int !max_lost;
              Report.Int !max_crash_held;
              Report.Int !bound;
              Report.Int !max_leaked;
              Report.Str
                (if !audited = 0 then "n/a"
                 else if !audits_ok = !audited then "ok"
                 else Printf.sprintf "FAIL(%d/%d)" !audits_ok !audited);
            ]
            :: !rows)
        ops_list)
    schemes;
  Report.make ~id:"E12"
    ~title:
      (Printf.sprintf
         "bounded loss under a crashed thread (N=%d, capacity=%d, %d seeds): \
          nodes stranded vs survivor work"
         threads capacity seeds)
    ~cols:
      [
        Report.dim "scheme";
        Report.dim "ops/worker";
        Report.measure ~unit_:"runs" "completed";
        Report.measure ~unit_:"runs" "oom";
        Report.measure ~unit_:"runs" "stalled";
        Report.measure ~unit_:"nodes" "lost(max)";
        Report.measure ~unit_:"nodes" "crash_held(max)";
        Report.measure ~unit_:"nodes" "bound";
        Report.measure ~unit_:"nodes" "leaked(max)";
        Report.measure "audit";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed
         ~params:
           [
             ("seeds", string_of_int seeds);
             ("threads", string_of_int threads);
             ("capacity", string_of_int capacity);
           ]
         ())
    ~notes:
      [
        "lost = capacity - free - reachable after survivors drain; \
         crash_held of it is attributed to the crashed thread by the \
         auditor, leaked is attributable to nothing (a real failure)";
        "wfrc: lost stays flat as survivor work grows and within the \
         N(N+1)-per-crash envelope (Theorem 1's per-thread reference \
         bound) — the crash costs a constant, not a rate";
        "ebr: the crashed thread pins the epoch, so every survivor \
         limbo bag jams and lost grows with ops until the arena is \
         exhausted (oom) — unbounded loss, the §1 contrast";
        "ebr can also leak outright (audit FAIL): a crash between \
         emptying a limbo bag and repooling its nodes strands them \
         outside any custody record, invisible to the scheme itself";
        "lockrc: runs where the victim died inside the critical \
         section stall the survivors (no audit possible)";
      ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E13: stall storm — k of N threads freeze for a window, then        *)
(* resume. Survivors' operations are step-metered: under WFRC each    *)
(* survivor op completes within its own-step bound no matter how      *)
(* many peers are frozen (wait-freedom); under lockrc a survivor op   *)
(* blocks for the whole stall window if a frozen thread holds the     *)
(* lock. The auditor confirms nothing is lost once the stall ends.    *)
(* ------------------------------------------------------------------ *)

let e13 ?(schemes = Registry.seeded_names) ?(ks = [ 1; 2 ]) ?(ops = 12)
    ?(seeds = 8)
    ?(seed = 47_000) () =
  let threads = 4 and capacity = 32 in
  let duration = 600 in
  let spine = Spine.create () in
  let rows = ref [] in
  List.iter
    (fun scheme ->
      List.iter
        (fun k ->
          let completed = ref 0
          and oom_runs = ref 0
          and stalled = ref 0
          and audits_ok = ref 0
          and audited = ref 0
          and max_op = ref 0
          and max_lost = ref 0 in
          for s = 0 to seeds - 1 do
            let cfg =
              Mm.config ~threads ~capacity ~num_links:1 ~num_data:1
                ~num_roots:1 ()
            in
            let mm = Registry.instantiate scheme cfg in
            Spine.wrap spine mm @@ fun () ->
            let arena = Mm.arena mm in
            let root = Shmem.Arena.root_addr arena 0 in
            let a = Mm.alloc mm ~tid:0 in
            Mm.store_link mm ~tid:0 root a;
            Mm.release mm ~tid:0 a;
            let faults =
              Sched.Fault.random_stalls ~seed:(seed + s) ~threads ~victims:k
                ~window:(40, 120) ~duration ()
            in
            let frozen = List.map Sched.Fault.tid_of faults in
            let movers =
              List.filter
                (fun tid -> not (List.mem tid frozen))
                (List.init threads (fun i -> i))
            in
            let storm =
              let froms =
                List.filter_map
                  (function
                    | Sched.Fault.Stall { from_step; _ } -> Some from_step
                    | Sched.Fault.Crash _ -> None)
                  faults
              in
              ( List.fold_left min max_int froms,
                List.fold_left max 0 froms + duration )
            in
            let rec_ = Audit.Steps.create ~threads in
            let oom = ref false in
            let body tid =
              for _ = 1 to ops do
                Audit.Steps.around rec_ ~tid (fun () ->
                    churn_op mm ~root ~oom ~tid)
              done
            in
            let policy = Sched.Policy.random ~seed:(seed + (s * 11) + 2) in
            match
              Sched.Engine.run ~max_steps:200_000 ~faults ~threads ~policy
                body
            with
            | _ ->
                if !oom then incr oom_runs else incr completed;
                let m =
                  Audit.Steps.max_own_steps ~window:storm rec_ ~tids:movers
                in
                max_op := max !max_op m;
                drain_survivors mm
                  ~survivors:(List.init threads (fun i -> i));
                let r = Audit.run mm in
                incr audited;
                if Audit.ok r then incr audits_ok;
                max_lost := max !max_lost r.Audit.lost
            | exception Sched.Engine.Out_of_steps -> incr stalled
          done;
          rows :=
            [
              Report.Str scheme;
              Report.Int k;
              Report.Int !completed;
              Report.Int !oom_runs;
              Report.Int !stalled;
              Report.Int !max_op;
              Report.Int !max_lost;
              Report.Str
                (if !audited = 0 then "n/a"
                 else if !audits_ok = !audited then "ok"
                 else Printf.sprintf "FAIL(%d/%d)" !audits_ok !audited);
            ]
            :: !rows)
        ks)
    schemes;
  Report.make ~id:"E13"
    ~title:
      (Printf.sprintf
         "stall storm (N=%d, %d-step freeze, %d seeds): survivor op cost \
          while k peers are frozen"
         threads duration seeds)
    ~cols:
      [
        Report.dim "scheme";
        Report.dim "k";
        Report.measure ~unit_:"runs" "completed";
        Report.measure ~unit_:"runs" "oom";
        Report.measure ~unit_:"runs" "stalled";
        Report.measure ~unit_:"steps" "max-op-steps";
        Report.measure ~unit_:"nodes" "lost(max)";
        Report.measure "audit";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed
         ~params:
           [
             ("seeds", string_of_int seeds);
             ("threads", string_of_int threads);
             ("capacity", string_of_int capacity);
             ("duration", string_of_int duration);
           ]
         ())
    ~notes:
      [
        "max-op-steps = the most *own* scheduling steps any survivor \
         operation took while overlapping the storm (Audit.Steps); \
         wait-free ops stay near their solo cost, lockrc ops absorb \
         the whole stall window when a frozen thread holds the lock";
        "stalled threads resume after the window and finish, so every \
         run ends quiescent and audits with no crashed threads: \
         nothing may be lost (lost counts only transient limbo \
         backlogs, e.g. ebr bags not yet collected)";
        "ebr during the storm: a frozen in-bracket thread blocks epoch \
         advance, so allocation can exhaust the arena (oom column) — \
         the blocking-reclamation cost even a *temporary* stall \
         inflicts";
      ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E16: crash recovery — dead-slot adoption. Where E12 measures what  *)
(* a crash strands, E16 measures what a survivor can take back: after *)
(* the E12 protocol (crash, drain, audit) one survivor declares the   *)
(* victim dead and runs the scheme's recovery pass; the re-audit's    *)
(* free-count delta is the [recovered] class. Three legs:             *)
(*   sim     deterministic-scheduler crashes (the E12 bed)            *)
(*   native  real Domains, faults injected mid-fragment by Chaos at   *)
(*           lifecycle-event boundaries, sharded store                *)
(*   oom     free-store exhaustion with a dead holder: allocation     *)
(*           must surface typed Out_of_nodes backpressure (bounded    *)
(*           wait), dead-cache adoption must unblock allocation, and  *)
(*           full recovery must return the held nodes                 *)
(* ------------------------------------------------------------------ *)

type e16_acc = {
  mutable runs : int;
  mutable skipped : int;     (* stalled / fault never fired / no damage *)
  mutable held_pre : int;    (* max pre-recovery crash_held *)
  mutable held_post : int;   (* max post-recovery crash_held *)
  mutable leaked : int;      (* max post-recovery leaked *)
  mutable pct_min : int;     (* min recovered*100/crash_held over runs *)
  mutable oon : int;         (* runs that saw typed Out_of_nodes *)
  mutable audited : int;
  mutable audits_ok : int;
}

let e16_acc () =
  {
    runs = 0;
    skipped = 0;
    held_pre = 0;
    held_post = 0;
    leaked = 0;
    pct_min = max_int;
    oon = 0;
    audited = 0;
    audits_ok = 0;
  }

let e16_absorb acc (o : Recovery.outcome) =
  acc.held_pre <- max acc.held_pre o.pre.Audit.crash_held;
  acc.held_post <- max acc.held_post o.post.Audit.crash_held;
  acc.leaked <- max acc.leaked o.post.Audit.leaked;
  let pct =
    if o.pre.Audit.crash_held = 0 then 100
    else 100 * o.post.Audit.recovered / o.pre.Audit.crash_held
  in
  acc.pct_min <- min acc.pct_min pct;
  acc.audited <- acc.audited + 1;
  if Audit.ok o.post then acc.audits_ok <- acc.audits_ok + 1

let e16_row scheme leg acc =
  [
    Report.Str scheme;
    Report.Str leg;
    Report.Int acc.runs;
    Report.Int acc.skipped;
    Report.Int acc.held_pre;
    Report.Int (if acc.pct_min = max_int then 0 else acc.pct_min);
    Report.Int acc.held_post;
    Report.Int acc.leaked;
    Report.Int acc.oon;
    Report.Str
      (if acc.audited = 0 then "n/a"
       else if acc.audits_ok = acc.audited then "ok"
       else Printf.sprintf "FAIL(%d/%d)" acc.audits_ok acc.audited);
  ]

(* Sim leg: the E12 bed plus a recovery pass. *)
let e16_sim spine scheme ~ops ~seeds ~seed =
  let threads = 3 and capacity = 48 in
  let victim = threads - 1 in
  let acc = e16_acc () in
  for s = 0 to seeds - 1 do
    acc.runs <- acc.runs + 1;
    let cfg =
      Mm.config ~threads ~capacity ~num_links:1 ~num_data:1 ~num_roots:1 ()
    in
    let mm = Registry.instantiate scheme cfg in
    Spine.wrap spine mm @@ fun () ->
    let arena = Mm.arena mm in
    let root = Shmem.Arena.root_addr arena 0 in
    let a = Mm.alloc mm ~tid:0 in
    Mm.store_link mm ~tid:0 root a;
    Mm.release mm ~tid:0 a;
    let oom = ref false in
    let body tid =
      if tid = victim then
        while true do
          churn_op mm ~root ~oom ~tid
        done
      else
        for _ = 1 to ops do
          churn_op mm ~root ~oom ~tid
        done
    in
    let rng = Rng.create (seed + s) in
    let faults =
      [ Sched.Fault.crash ~tid:victim ~at_step:(30 + Rng.int rng 200) ]
    in
    let policy = Sched.Policy.random ~seed:(seed + (s * 7) + 1) in
    match
      Sched.Engine.run ~max_steps:120_000 ~faults ~threads ~policy body
    with
    | _ ->
        drain_survivors mm ~survivors:[ 0; 1 ];
        e16_absorb acc (Recovery.run ~dead:[ victim ] ~by:0 mm)
    | exception Sched.Engine.Out_of_steps -> acc.skipped <- acc.skipped + 1
  done;
  acc

(* Native leg: real Domains; Chaos fires the same plan shape at
   lifecycle-event boundaries. One victim crashes mid-fragment and one
   thread stalls through a window and resumes, all against the
   sharded store. *)
let e16_native spine scheme ~ops ~seeds =
  let threads = 4 and capacity = 96 in
  let victim = threads - 1 in
  let acc = e16_acc () in
  for s = 0 to seeds - 1 do
    acc.runs <- acc.runs + 1;
    let cfg =
      Mm.config ~backend:Atomics.Backend.Native ~shards:4 ~batch:4 ~threads
        ~capacity ~num_links:1 ~num_data:1 ~num_roots:1 ()
    in
    let mm = Registry.instantiate scheme cfg in
    Spine.wrap spine mm @@ fun () ->
    let arena = Mm.arena mm in
    let root = Shmem.Arena.root_addr arena 0 in
    let a = Mm.alloc mm ~tid:0 in
    Mm.store_link mm ~tid:0 root a;
    Mm.release mm ~tid:0 a;
    let plan =
      [
        Sched.Fault.crash ~tid:victim ~at_step:(40 + (17 * s));
        Sched.Fault.stall ~tid:(victim - 1) ~from_step:(25 + (11 * s))
          ~duration:2_000;
      ]
    in
    let chaos = Chaos.of_plan ~threads plan in
    let oom = ref false in
    ignore
      (Chaos.run chaos (fun ~tid ->
           for _ = 1 to ops do
             churn_op mm ~root ~oom ~tid
           done));
    if !oom then acc.oon <- acc.oon + 1;
    match Chaos.crashed chaos with
    | [] -> acc.skipped <- acc.skipped + 1
    | dead ->
        let survivors = Chaos.survivors chaos in
        drain_survivors mm ~survivors;
        e16_absorb acc (Recovery.run ~dead ~by:(List.hd survivors) mm)
  done;
  acc

(* OOM leg (refcounted sharded schemes): exhaust the store while a
   crashed peer holds the last nodes. Allocation must terminate with
   typed backpressure, not an unbounded park; declaring the peer dead
   must let the A7-style adoption path serve from its stranded cache;
   full recovery must return everything. Driven from the main domain
   with tid indices — manager ops need no engine. *)
let e16_oom spine scheme ~seed:_ =
  let threads = 2 and capacity = 24 in
  let acc = e16_acc () in
  acc.runs <- 1;
  let cfg =
    Mm.config ~backend:Atomics.Backend.Native ~shards:2 ~batch:4 ~threads
      ~capacity ~num_links:1 ~num_data:1 ~num_roots:0 ()
  in
  let mm = Registry.instantiate scheme cfg in
  Spine.wrap spine mm @@ fun () ->
  let hold tid =
    let held = ref [] and typed = ref false in
    (try
       for _ = 1 to capacity + 1 do
         held := Mm.alloc mm ~tid :: !held
       done
     with
    | Mm.Out_of_nodes _ -> typed := true
    | Mm.Out_of_memory -> ());
    (!held, !typed)
  in
  (* The doomed peer takes everything it can, parks a cache-full back
     (those are the nodes only adoption can reach), then crashes. *)
  let held1, _ = hold 1 in
  let parked, kept =
    let rec split n acc = function
      | p :: rest when n > 0 -> split (n - 1) (p :: acc) rest
      | rest -> (acc, rest)
    in
    split 8 [] held1
  in
  List.iter (fun p -> Mm.release mm ~tid:1 p) parked;
  ignore kept;
  (* Survivor: exhaustion must surface as typed backpressure, after a
     bounded number of scans/parks. *)
  let held0, typed = hold 0 in
  if typed then acc.oon <- acc.oon + 1;
  List.iter (fun p -> Mm.release mm ~tid:0 p) held0;
  (* Declaring the peer dead unblocks allocation through dead-cache
     adoption alone (the in-alloc A7 path), before any full pass. *)
  Mm.declare_dead mm ~tid:1;
  (match Mm.alloc mm ~tid:0 with
  | p -> Mm.release mm ~tid:0 p
  | exception (Mm.Out_of_nodes _ | Mm.Out_of_memory) ->
      acc.skipped <- acc.skipped + 1);
  (* Full recovery returns the crashed holder's references too. *)
  e16_absorb acc (Recovery.run ~dead:[ 1 ] ~by:0 mm);
  (match Mm.alloc mm ~tid:0 with
  | p -> Mm.release mm ~tid:0 p
  | exception (Mm.Out_of_nodes _ | Mm.Out_of_memory) ->
      acc.skipped <- acc.skipped + 1);
  acc

let e16 ?(schemes = Registry.names) ?(ops = 24) ?(native_ops = 2_000)
    ?(seeds = 6) ?(native_seeds = 3) ?(seed = 53_000) () =
  let spine = Spine.create () in
  let rows = ref [] in
  let oom_schemes = [ "wfrc"; "lfrc"; "lockrc"; "wfrc_deferred" ] in
  List.iter
    (fun scheme ->
      rows := e16_row scheme "sim" (e16_sim spine scheme ~ops ~seeds ~seed)
              :: !rows;
      rows :=
        e16_row scheme "native"
          (e16_native spine scheme ~ops:native_ops ~seeds:native_seeds)
        :: !rows;
      if List.mem scheme oom_schemes then
        rows := e16_row scheme "oom" (e16_oom spine scheme ~seed) :: !rows)
    schemes;
  Report.make ~id:"E16"
    ~title:
      (Printf.sprintf
         "crash recovery: dead-slot adoption (%d sim + %d native seeds) and \
          bounded OOM degradation"
         seeds native_seeds)
    ~cols:
      [
        Report.dim "scheme";
        Report.dim "leg";
        Report.measure ~unit_:"runs" "runs";
        Report.measure ~unit_:"runs" "skipped";
        Report.measure ~unit_:"nodes" "crash_held(pre,max)";
        Report.measure ~unit_:"%" "recovered(min)";
        Report.measure ~unit_:"nodes" "crash_held(post,max)";
        Report.measure ~unit_:"nodes" "leaked(max)";
        Report.measure ~unit_:"runs" "oon";
        Report.measure "audit";
      ]
    ~counters:(Spine.totals spine)
    ~meta:
      (Report.meta ~seed
         ~params:
           [
             ("seeds", string_of_int seeds);
             ("native_seeds", string_of_int native_seeds);
             ("ops", string_of_int ops);
             ("native_ops", string_of_int native_ops);
           ]
         ())
    ~notes:
      [
        "recovered(min) = worst-case share of pre-recovery crash_held \
         returned to the free store by one Recovery.run pass (can exceed \
         100: the pass also drains the adopter's own backlog); the \
         target is >= 90 with leaked = 0 on every leg";
        "sim leg: the E12 bed (N=3, cap=48) plus recovery; skipped \
         counts runs that never quiesced (lockrc: victim died holding \
         the lock — its Sim recovery is exercised in test/t_fault.ml \
         instead)";
        "native leg: real Domains over the sharded store; Chaos fires \
         the crash mid-fragment at a lifecycle-event boundary and \
         stalls one thread through a 2 ms window (it resumes and \
         finishes); oon counts runs where churn saw typed Out_of_nodes \
         backpressure";
        "oom leg: a peer takes the whole arena, parks one cache-full \
         and crashes; the survivor's exhausted alloc must raise typed \
         Out_of_nodes (oon = 1), declaring the peer dead must unblock \
         alloc via dead-cache adoption alone, and full recovery must \
         return the held nodes (recovered ~ 100)";
      ]
    (List.rev !rows)

let specs =
  [
    Exp.spec ~id:"e12"
      ~descr:"crash tolerance: audited bounded loss vs unbounded leak"
      (fun { Exp.quick } ->
        if quick then e12 ~ops_list:[ 6; 18 ] ~seeds:4 () else e12 ());
    Exp.spec ~id:"e13" ~descr:"stall storm: survivor own-step bounds (wait-freedom)"
      (fun { Exp.quick } ->
        if quick then e13 ~ks:[ 1 ] ~ops:8 ~seeds:3 () else e13 ());
    Exp.spec ~id:"e16"
      ~descr:"crash recovery: dead-slot adoption and bounded OOM degradation"
      (fun { Exp.quick } ->
        if quick then
          e16 ~ops:12 ~seeds:3 ~native_ops:800 ~native_seeds:2 ()
        else e16 ());
  ]
