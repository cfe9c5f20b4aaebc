(* Per-thread event counters.

   Each thread increments only its own row, so increments are plain
   (non-atomic) stores with no cross-thread races on the same index;
   aggregation happens after the threads have joined (or is read as an
   approximate live snapshot). Rows are padded to keep threads on
   separate cache lines. *)

type event =
  | Cas_attempt
  | Cas_failure
  | Faa
  | Swap
  | Read
  | Write
  | Deref
  | Deref_retry
  | Deref_helped
  | Help_scan
  | Help_answered
  | Help_refused
  | Alloc
  | Alloc_retry
  | Alloc_helped
  | Alloc_gave_help
  | Free
  | Free_retry
  | Free_gave_help
  | Release
  | Node_reclaimed
  | Hp_scan
  | Epoch_advance
  | Lock_acquire
  | Cache_refill
  | Cache_spill
  | Free_remote
  | Steal
  | Park_wait
  | Park_wake
  | Recovery_adopt
  | Recovery_release
  | Oom_backpressure

let all_events =
  [ Cas_attempt; Cas_failure; Faa; Swap; Read; Write; Deref; Deref_retry;
    Deref_helped; Help_scan; Help_answered; Help_refused; Alloc;
    Alloc_retry; Alloc_helped; Alloc_gave_help; Free; Free_retry;
    Free_gave_help; Release; Node_reclaimed; Hp_scan; Epoch_advance;
    Lock_acquire; Cache_refill; Cache_spill; Free_remote; Steal;
    Park_wait; Park_wake; Recovery_adopt; Recovery_release;
    Oom_backpressure ]

let event_index = function
  | Cas_attempt -> 0
  | Cas_failure -> 1
  | Faa -> 2
  | Swap -> 3
  | Read -> 4
  | Write -> 5
  | Deref -> 6
  | Deref_retry -> 7
  | Deref_helped -> 8
  | Help_scan -> 9
  | Help_answered -> 10
  | Help_refused -> 11
  | Alloc -> 12
  | Alloc_retry -> 13
  | Alloc_helped -> 14
  | Alloc_gave_help -> 15
  | Free -> 16
  | Free_retry -> 17
  | Free_gave_help -> 18
  | Release -> 19
  | Node_reclaimed -> 20
  | Hp_scan -> 21
  | Epoch_advance -> 22
  | Lock_acquire -> 23
  | Cache_refill -> 24
  | Cache_spill -> 25
  | Free_remote -> 26
  | Steal -> 27
  | Park_wait -> 28
  | Park_wake -> 29
  | Recovery_adopt -> 30
  | Recovery_release -> 31
  | Oom_backpressure -> 32

let num_events = List.length all_events

let event_name = function
  | Cas_attempt -> "cas_attempt"
  | Cas_failure -> "cas_failure"
  | Faa -> "faa"
  | Swap -> "swap"
  | Read -> "read"
  | Write -> "write"
  | Deref -> "deref"
  | Deref_retry -> "deref_retry"
  | Deref_helped -> "deref_helped"
  | Help_scan -> "help_scan"
  | Help_answered -> "help_answered"
  | Help_refused -> "help_refused"
  | Alloc -> "alloc"
  | Alloc_retry -> "alloc_retry"
  | Alloc_helped -> "alloc_helped"
  | Alloc_gave_help -> "alloc_gave_help"
  | Free -> "free"
  | Free_retry -> "free_retry"
  | Free_gave_help -> "free_gave_help"
  | Release -> "release"
  | Node_reclaimed -> "node_reclaimed"
  | Hp_scan -> "hp_scan"
  | Epoch_advance -> "epoch_advance"
  | Lock_acquire -> "lock_acquire"
  | Cache_refill -> "cache_refill"
  | Cache_spill -> "cache_spill"
  | Free_remote -> "free_remote"
  | Steal -> "steal"
  | Park_wait -> "park_wait"
  | Park_wake -> "park_wake"
  | Recovery_adopt -> "recovery_adopt"
  | Recovery_release -> "recovery_release"
  | Oom_backpressure -> "oom_backpressure"

(* Row stride, per backend: events rounded up to a multiple of 16
   words under [Sim] (the historical padding — keeps rows line-pair
   separated even when a simulated config is later run on Domains),
   and to a multiple of 32 words under [Native], where the adjacent-
   line prefetcher makes 256-byte separation the safe distance for
   rows that real cores hammer in parallel. *)
let round_up n m = (n + m - 1) / m * m

let stride_for = function
  | Backend.Sim -> round_up num_events 16
  | Backend.Native -> round_up num_events 32

type t = { threads : int; stride : int; slots : int array }

let create ?(backend = Backend.Sim) ~threads () =
  if threads <= 0 then invalid_arg "Counters.create: threads must be > 0";
  let stride = stride_for backend in
  { threads; stride; slots = Array.make (threads * stride) 0 }

let check_tid t tid =
  if tid < 0 || tid >= t.threads then invalid_arg "Counters: bad tid"

(* [check_tid] bounds the row and [event_index ev < stride] bounds the
   column, so the flat index needs no further checks — this is the
   hottest non-atomic store in every manager. *)
let add t ~tid ev n =
  check_tid t tid;
  let i = (tid * t.stride) + event_index ev in
  Array.unsafe_set t.slots i (Array.unsafe_get t.slots i + n)

let incr t ~tid ev = add t ~tid ev 1

let get t ~tid ev =
  check_tid t tid;
  t.slots.((tid * t.stride) + event_index ev)

let total t ev =
  let acc = ref 0 in
  for tid = 0 to t.threads - 1 do
    acc := !acc + t.slots.((tid * t.stride) + event_index ev)
  done;
  !acc

let reset t = Array.fill t.slots 0 (Array.length t.slots) 0

let threads t = t.threads

(* Snapshot as an association list of non-zero totals, for reports. *)
let snapshot t =
  List.filter_map
    (fun ev ->
      let n = total t ev in
      if n = 0 then None else Some (ev, n))
    all_events

let pp ppf t =
  let rows = snapshot t in
  if rows = [] then Fmt.string ppf "(no events)"
  else
    Fmt.list ~sep:Fmt.comma
      (fun ppf (ev, n) -> Fmt.pf ppf "%s=%d" (event_name ev) n)
      ppf rows
