(* The four workloads. Each builds a fresh wfrc instance (Native
   backend, default unboxed cells) and whatever sits on top of it, runs
   pre-generated encoded ops from [op], and checks itself at
   quiescence in [finish].

   An op is one int drawn by [gen] before the trial, so no RNG cost
   runs inside the timed region. Per-domain outcome counts go into the
   [tallies] rows passed to [setup]. *)

module Mm = Mm_intf
module Q = Structures.Queue
module Hmap = Structures.Hmap
module Service = Actor.Service
module Rng = Sched.Rng
module K = Trace.K

(* Tally slots, one row of [tally_width] per domain (padded to keep
   rows off each other's cache lines). *)
let c_failed = 0
let c_enqueue = 1
let c_dequeue_hit = 2
let c_lookup = 3
let c_lookup_hit = 4
let c_insert_ok = 5
let c_remove_ok = 6
let c_send = 7
let c_send_drop = 8
let c_receive = 9
let c_receive_hit = 10
let tally_width = 16

type inst = {
  mm : Mm.instance;
  op : tid:int -> int -> unit;
  finish : unit -> string list;
      (* quiescent checks, then teardown; the failed checks *)
}

type t = {
  name : string;
  gen : Rng.t -> int -> int;  (* the op at ring position [i] *)
  setup : timed:bool -> threads:int -> seed:int -> tallies:int array array -> inst;
}

let scheme ~timed : (module Mm.S) =
  if timed then (module Trace.Timed) else (module Wfrc)

let bump (row : int array) slot = row.(slot) <- row.(slot) + 1
let total tallies slot = Array.fold_left (fun acc r -> acc + r.(slot)) 0 tallies

(* The checks every workload ends with. *)
let manager_checks mm =
  let validate =
    match Mm.validate mm with
    | () -> []
    | exception Failure msg -> [ "validate: " ^ msg ]
  in
  let audit = Harness.Audit.run mm in
  validate
  @
  if Harness.Audit.ok audit && audit.Harness.Audit.leaked = 0 then []
  else [ "audit: " ^ Harness.Audit.to_string audit ]

let expect what ~got ~want =
  if got = want then [] else [ Printf.sprintf "%s: %d, expected %d" what got want ]

let oom row = bump row c_failed

(* alloc, release, terminate: one pair through AllocNode/FreeNode with
   no deref, no cas_link and no structure. *)
let churn =
  let capacity = 8192 in
  {
    name = "churn";
    gen = (fun _ _ -> 0);
    setup =
      (fun ~timed ~threads ~seed:_ ~tallies ->
        let mm =
          Mm.instantiate (scheme ~timed)
            (Mm.config ~backend:Atomics.Backend.Native ~threads ~capacity
               ~num_links:1 ~num_data:1 ())
        in
        let op ~tid _ =
          Mm.enter_op mm ~tid;
          (try
             let p = Mm.alloc mm ~tid in
             Mm.release mm ~tid p;
             Mm.terminate mm ~tid p
           with Mm.Out_of_memory | Mm.Out_of_nodes _ -> oom tallies.(tid));
          Mm.exit_op mm ~tid
        in
        let finish () =
          manager_checks mm
          @ expect "free_count" ~got:(Mm.free_count mm) ~want:capacity
        in
        { mm; op; finish });
  }

(* Michael-Scott queue, each domain alternating enqueue and dequeue. *)
let queue =
  let prefill = 1024 in
  {
    name = "queue";
    gen = (fun rng i -> if i land 1 = 0 then Rng.int rng 1_000_000 lsl 1 else 1);
    setup =
      (fun ~timed ~threads ~seed:_ ~tallies ->
        let mm =
          Mm.instantiate (scheme ~timed)
            (Mm.config ~backend:Atomics.Backend.Native ~threads ~capacity:16384
               ~num_links:1 ~num_data:1 ~num_roots:2 ())
        in
        let q = Q.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
        for v = 1 to prefill do
          Q.enqueue q ~tid:0 v
        done;
        let op ~tid code =
          let row = tallies.(tid) and d = Trace.state tid in
          try
            if code land 1 = 0 then begin
              let i = Trace.enter_if d K.enqueue in
              Q.enqueue q ~tid (code lsr 1);
              Trace.leave d i;
              bump row c_enqueue
            end
            else begin
              let i = Trace.enter_if d K.dequeue in
              let r = Q.dequeue q ~tid in
              Trace.leave d i;
              match r with Some _ -> bump row c_dequeue_hit | None -> ()
            end
          with Mm.Out_of_memory | Mm.Out_of_nodes _ -> oom row
        in
        let finish () =
          let checks = manager_checks mm in
          let length = List.length (Q.drain q ~tid:0) in
          ignore (Q.destroy q ~tid:0);
          checks
          @ expect "queue length" ~got:length
              ~want:
                (prefill + total tallies c_enqueue - total tallies c_dequeue_hit)
        in
        { mm; op; finish });
  }

(* Hash map, 90% lookup / 5% insert / 5% remove over uniform keys. *)
let dict =
  let buckets = 2048 and keys = 8192 and prefill = 4096 in
  {
    name = "dict";
    gen =
      (fun rng _ ->
        let r = Rng.int rng 100 and key = Rng.int rng keys in
        (key lsl 2) lor if r < 90 then 0 else if r < 95 then 1 else 2);
    setup =
      (fun ~timed ~threads ~seed ~tallies ->
        let mm =
          Mm.instantiate (scheme ~timed)
            (Mm.config ~backend:Atomics.Backend.Native ~threads ~capacity:16384
               ~num_links:1 ~num_data:2 ~num_roots:buckets ())
        in
        let h = Hmap.create mm ~buckets ~tid:0 in
        (* Anchor the bucket sentinels so the audit sees the map. *)
        let arena = Mm.arena mm in
        Array.iteri
          (fun i head ->
            Mm.store_link mm ~tid:0 (Shmem.Arena.root_addr arena i) head)
          (Hmap.heads h);
        let rng = Rng.create seed in
        let size0 = ref 0 in
        for _ = 1 to prefill do
          let k = Rng.int rng keys in
          if Hmap.insert h ~tid:0 k k then incr size0
        done;
        let op ~tid code =
          let row = tallies.(tid) and d = Trace.state tid in
          let key = code lsr 2 in
          try
            match code land 3 with
            | 0 ->
                let i = Trace.enter_if d K.lookup in
                let r = Hmap.lookup h ~tid key in
                Trace.leave d i;
                bump row c_lookup;
                (match r with Some _ -> bump row c_lookup_hit | None -> ())
            | 1 ->
                let i = Trace.enter_if d K.insert in
                let ok = Hmap.insert h ~tid key key in
                Trace.leave d i;
                if ok then bump row c_insert_ok
            | _ ->
                let i = Trace.enter_if d K.remove in
                let ok = Hmap.remove h ~tid key in
                Trace.leave d i;
                if ok then bump row c_remove_ok
          with Mm.Out_of_memory | Mm.Out_of_nodes _ -> oom row
        in
        let finish () =
          manager_checks mm
          @ expect "map size" ~got:(Hmap.size h ~tid:0)
              ~want:
                (!size0 + total tallies c_insert_ok - total tallies c_remove_ok)
        in
        { mm; op; finish });
  }

(* Actor service, 60% send / 40% receive-drain (up to 8) to uniform
   live ids: the mix of [Harness.Bench.run_actor_point]. *)
let actor =
  let max_actors = 8192 and buckets = 2048 in
  let live = max_actors * 6 / 10 in
  {
    name = "actor";
    gen =
      (fun rng _ ->
        let idx = Rng.int rng live in
        (idx lsl 1) lor if Rng.int rng 100 < 60 then 0 else 1);
    setup =
      (fun ~timed ~threads ~seed ~tallies ->
        (* Sentinels, one mailbox sentinel and one registry node per
           actor, and room for the ~1.5 messages per live mailbox the
           mix settles at. *)
        let capacity = (2 * buckets) + 2 + (2 * max_actors) + 16384 in
        let mm =
          Mm.instantiate (scheme ~timed)
            (Service.mm_config ~backend:Atomics.Backend.Native ~shards:2
               ~batch:8 ~threads ~capacity ~max_actors ~buckets ())
        in
        let svc = Service.create mm ~max_actors ~buckets ~seed ~tid:0 in
        (* Free slots are owned per domain, so each domain spawns its
           share from its own list. *)
        let counts = Harness.Workload.split_ops ~threads ~ops:live in
        let spawned = Array.make threads [] in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               for _ = 1 to counts.(tid) do
                 match Service.spawn svc ~tid with
                 | Some id -> spawned.(tid) <- id :: spawned.(tid)
                 | None -> ()
               done));
        let ids =
          Array.of_list (List.concat_map List.rev (Array.to_list spawned))
        in
        let op ~tid code =
          let row = tallies.(tid) and d = Trace.state tid in
          let idx = code lsr 1 in
          if idx < Array.length ids then
            if code land 1 = 0 then begin
              let i = Trace.enter_if d K.send in
              let ok = Service.send svc ~tid ~dst:ids.(idx) idx in
              Trace.leave d i;
              bump row c_send;
              if not ok then begin
                bump row c_send_drop;
                bump row c_failed
              end
            end
            else
              let drained = ref 0 in
              while !drained < 8 do
                let i = Trace.enter_if d K.receive in
                let r = Service.receive svc ~tid ~self:ids.(idx) in
                Trace.leave d i;
                bump row c_receive;
                match r with
                | Some _ ->
                    bump row c_receive_hit;
                    incr drained
                | None -> drained := 8
              done
        in
        let finish () =
          let spawn = expect "spawned actors" ~got:(Array.length ids) ~want:live in
          let discarded = Service.teardown svc ~tid:0 in
          let tot = Service.totals svc in
          spawn
          @ expect "sent vs received + discarded" ~got:tot.Service.sent
              ~want:(tot.Service.received + discarded)
          @ manager_checks mm
        in
        { mm; op; finish });
  }

let all = [ churn; queue; dict; actor ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (known: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) all)))
