(* Outside-in span tracing for the traced trials.

   Spans are recorded only around calls into a layer's public
   functions: the benchmark loop's op, [Actor.Service] send/receive,
   [Structures.Queue]/[Hmap] calls, and the [Mm_intf] calls into wfrc
   (through [Timed], a manager that includes [Wfrc] and times it).
   Nothing under lib/ is instrumented, so a layer's internals (the
   service's own queue and map calls, wfrc's helping) land in that
   layer's self time.

   Only sampled ops record spans; every other call pays the two
   branches of [enter_if]/[leave]. Each domain owns one [d], indexed by
   tid, so recording takes no synchronisation. *)

let names =
  [|
    "op";
    "actor.send";
    "actor.receive";
    "structures.enqueue";
    "structures.dequeue";
    "structures.lookup";
    "structures.insert";
    "structures.remove";
    "wfrc.alloc";
    "wfrc.deref";
    "wfrc.release";
    "wfrc.copy_ref";
    "wfrc.cas_link";
    "wfrc.store_link";
    "wfrc.terminate";
  |]

(* Span kinds: indices into [names]. *)
module K = struct
  let op = 0
  let send = 1
  let receive = 2
  let enqueue = 3
  let dequeue = 4
  let lookup = 5
  let insert = 6
  let remove = 7
  let alloc = 8
  let deref = 9
  let release = 10
  let copy_ref = 11
  let cas_link = 12
  let store_link = 13
  let terminate = 14
end

let kinds = Array.length names

let layer k =
  if k = K.op then "loop"
  else if k <= K.receive then "actor"
  else if k <= K.remove then "structures"
  else "wfrc"

(* Spans one op may record; spans past this (long retry chains) are
   not recorded, and their time stays in the parent's self time. *)
let max_spans = 512

(* Spans kept per domain and trial for [--trace-out]. *)
let log_cap = 1 lsl 16

type logged = { kind : int; parent : int; op_id : int; t0 : int; t1 : int }

type d = {
  mutable on : bool;
  kind : int array;
  start : int array;
  stop : int array;
  parent : int array;
  mutable n : int;
  mutable cur : int;
  (* Sums over the sampled ops of one trial, indexed by span kind. *)
  calls : int array;
  incl_ns : int array;
  self_ns : int array;
  keep_log : bool;
  mutable log : logged list;
  mutable logged : int;
  mutable op_id : int;
}

let make ~keep_log =
  {
    on = false;
    kind = Array.make max_spans 0;
    start = Array.make max_spans 0;
    stop = Array.make max_spans 0;
    parent = Array.make max_spans (-1);
    n = 0;
    cur = -1;
    calls = Array.make kinds 0;
    incl_ns = Array.make kinds 0;
    self_ns = Array.make kinds 0;
    keep_log;
    log = [];
    logged = 0;
    op_id = 0;
  }

let states = ref [||]

(* Fresh per-domain state for a trial of [threads] domains. *)
let reset ~threads ~keep_log =
  states := Array.init threads (fun _ -> make ~keep_log)

let state tid = Array.unsafe_get !states tid

(* Opens a span when [d] is inside a sampled op, else returns -1. The
   timestamp is taken last on entry and first on exit, so the
   bookkeeping stays outside the span. *)
let enter_if d k =
  if not d.on then -1
  else
    let i = d.n in
    if i >= max_spans then -1
    else begin
      d.n <- i + 1;
      d.kind.(i) <- k;
      d.parent.(i) <- d.cur;
      d.stop.(i) <- -1;
      d.cur <- i;
      d.start.(i) <- Harness.Runner.now_ns ();
      i
    end

let leave d i =
  if i >= 0 then begin
    d.stop.(i) <- Harness.Runner.now_ns ();
    d.cur <- d.parent.(i)
  end

(* Fold the finished op's spans into the sums. A span left open by an
   exception voids the whole op. *)
let finish d =
  let n = d.n in
  let ok = ref true in
  for i = 0 to n - 1 do
    if d.stop.(i) < d.start.(i) then ok := false
  done;
  if !ok then
    for i = 0 to n - 1 do
      let k = d.kind.(i) and dur = d.stop.(i) - d.start.(i) in
      d.calls.(k) <- d.calls.(k) + 1;
      d.incl_ns.(k) <- d.incl_ns.(k) + dur;
      d.self_ns.(k) <- d.self_ns.(k) + dur;
      let p = d.parent.(i) in
      if p >= 0 then d.self_ns.(d.kind.(p)) <- d.self_ns.(d.kind.(p)) - dur;
      if d.keep_log && d.logged < log_cap then begin
        d.logged <- d.logged + 1;
        d.log <-
          {
            kind = k;
            parent = (if p >= 0 then d.kind.(p) else -1);
            op_id = d.op_id;
            t0 = d.start.(i);
            t1 = d.stop.(i);
          }
          :: d.log
      end
    done;
  d.op_id <- d.op_id + 1;
  d.n <- 0;
  d.cur <- -1

(* The sums of one trial, over its domains. *)
type agg = { calls : int array; incl_ns : int array; self_ns : int array }

let collect () =
  let sum f =
    Array.init kinds (fun k ->
        Array.fold_left (fun acc d -> acc + (f d).(k)) 0 !states)
  in
  {
    calls = sum (fun (d : d) -> d.calls);
    incl_ns = sum (fun (d : d) -> d.incl_ns);
    self_ns = sum (fun (d : d) -> d.self_ns);
  }

let logs () = Array.map (fun d -> List.rev d.log) !states

(* The wfrc manager with every [Mm_intf] call timed from outside. *)
module Timed : Mm_intf.S with type t = Wfrc.t = struct
  include Wfrc

  let alloc t ~tid =
    let d = state tid in
    let i = enter_if d K.alloc in
    let r = Wfrc.alloc t ~tid in
    leave d i;
    r

  let deref t ~tid a =
    let d = state tid in
    let i = enter_if d K.deref in
    let r = Wfrc.deref t ~tid a in
    leave d i;
    r

  let release t ~tid p =
    let d = state tid in
    let i = enter_if d K.release in
    Wfrc.release t ~tid p;
    leave d i

  let copy_ref t ~tid p =
    let d = state tid in
    let i = enter_if d K.copy_ref in
    let r = Wfrc.copy_ref t ~tid p in
    leave d i;
    r

  let cas_link t ~tid a ~old ~nw =
    let d = state tid in
    let i = enter_if d K.cas_link in
    let r = Wfrc.cas_link t ~tid a ~old ~nw in
    leave d i;
    r

  let store_link t ~tid a p =
    let d = state tid in
    let i = enter_if d K.store_link in
    Wfrc.store_link t ~tid a p;
    leave d i

  let terminate t ~tid p =
    let d = state tid in
    let i = enter_if d K.terminate in
    Wfrc.terminate t ~tid p;
    leave d i
end

(* Chrome trace-event JSON (the "X" complete-event form), viewable in
   Perfetto or chrome://tracing. [groups] holds, per workload, one span
   list per domain; timestamps are made relative to the group's first
   span and written in microseconds. *)
let write_chrome ~path groups =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  List.iteri
    (fun pid (workload, per_domain) ->
      let origin =
        Array.fold_left
          (fun acc spans ->
            List.fold_left (fun acc (s : logged) -> min acc s.t0) acc spans)
          max_int per_domain
      in
      Printf.fprintf oc
        "%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \
         \"args\": {\"name\": %S}}"
        (if pid = 0 then "" else ",\n")
        pid workload;
      Array.iteri
        (fun tid spans ->
          List.iter
            (fun (s : logged) ->
              Printf.fprintf oc
                ",\n{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": %d, \
                 \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": \
                 {\"op\": %d, \"parent\": %S}}"
                names.(s.kind) (layer s.kind) pid tid
                (float_of_int (s.t0 - origin) /. 1e3)
                (float_of_int (s.t1 - s.t0) /. 1e3)
                s.op_id
                (if s.parent < 0 then "" else names.(s.parent)))
            spans)
        per_domain)
    groups;
  output_string oc "\n]}\n";
  close_out oc
