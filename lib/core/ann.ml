[@@@wfrc.progress "wait_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* The announcement pool of Figure 4:

     annReadAddr[NR_THREADS][NR_THREADS] : LinkOrPointer
     annIndex[NR_THREADS]                : integer
     annBusy[NR_THREADS][NR_THREADS]     : integer

   Row [tid] belongs to thread [tid]; it announces a pending
   de-reference by storing the link (encoded negatively, see
   [Shmem.Value]) into a slot whose busy count is zero. Helpers answer
   by CASing the link value into a node pointer. The busy counts are
   the paper's defence against stale answers: a slot is reused only
   when no helper holds a pending CAS against it (§3, D1).

   The cells are algorithm globals, not user memory, so they live
   outside the arena — but they are the same atomic word cells and
   follow the same backend-chosen store. Under [Sim] the pool is
   arrays of instrumented cells, crossing the same scheduling points
   as arena words. Under [Native] it is one raw {!Atomics.Words}
   block — index words first, then the announcement matrix, then the
   busy matrix, every word on its own cache-line pair — which is what
   lets {!scan_announced} sweep a whole helping pass, and
   {!deref_fused} run a whole D1–D6, in one C stub call. *)

module P = Atomics.Primitives
module B = Atomics.Backend
module W = Atomics.Words
module Value = Shmem.Value

type store =
  | Cells of {
      read_addr : P.cell array array; (* annReadAddr; 0 = ⊥ *)
      index : P.cell array; (* annIndex *)
      busy : P.cell array array; (* annBusy *)
      last_index : int array;
          (* per-thread shadow of annIndex[tid]: the value its only
             writer stored last, read by D2 without a scheduling point *)
    }
  | Raw of { w : W.t; geom : int array }

type t = { n : int; store : store }

let line = B.cache_line_words

(* Native word map (all offsets in words, one line pair per cell):
   index[i] at [i*line]; read_addr[i][s] at [ra_base + (i*n + s)*line];
   busy[i][s] at [busy_base + (i*n + s)*line]. [geom] packages the
   index/read_addr part for the scan stub. *)
let idx_w i = i * line
let ra_base t = t.n * line
let ra_w t i s = ra_base t + (((i * t.n) + s) * line)
let busy_w t i s = ((t.n * line) + (t.n * t.n * line)) + (((i * t.n) + s) * line)

(* Every announcement cell is by definition a cross-thread hot word
   (the owner publishes, every helper scans and CASes), so under the
   [Native] backend every one of them gets its own cache-line pair;
   the pool is O(N^2) words for N threads, which stays tiny next to
   any arena. *)
let create ?(backend = B.Sim) ~threads () =
  if threads < 1 then invalid_arg "Ann.create";
  let n = threads in
  let store =
    match backend with
    | B.Sim ->
        let mk _ = P.make 0 in
        Cells
          {
            read_addr = Array.init n (fun _ -> Array.init n mk);
            index = Array.init n mk;
            busy = Array.init n (fun _ -> Array.init n mk);
            last_index = Array.make n 0;
          }
    | B.Native ->
        let w = W.make ((n + (2 * n * n)) * line) in
        let geom = [| 0; line; n * line; n * line; line; n |] in
        Raw { w; geom }
  in
  { n; store }

let threads t = t.n

let read_busy t ~id ~slot =
  match t.store with
  | Cells c -> P.read c.busy.(id).(slot)
  | Raw r -> W.get r.w (busy_w t id slot)

let no_free_slot () =
  failwith "Ann.choose_slot: no free slot — busy-count invariant broken"

(* D1: find a slot with busy = 0. The scan is bounded: at most [n-1]
   helpers can hold a busy claim on this row at any time, and no new
   claim can be acquired while the row has no live announcement, so at
   least one slot reads 0 within one pass (see the Lemma 9/10-style
   argument in DESIGN.md). *)
let choose_slot t ~tid =
  let rec scan i =
    if i >= t.n then no_free_slot ()
    else if read_busy t ~id:tid ~slot:i = 0 then i
    else scan (i + 1)
  in
  scan 0

(* D2, skipped when annIndex[tid] already holds [slot]. Thread [tid]
   is the word's only writer, so the skipped store would not change
   what any H2 read returns — it would only invalidate the line the
   helpers read. [Sim] decides from the per-thread shadow (no
   scheduling point), [Native] from a read of its own word. *)
let set_index t ~tid slot =
  match t.store with
  | Cells c ->
      if c.last_index.(tid) <> slot then begin
        c.last_index.(tid) <- slot;
        P.write c.index.(tid) slot
      end
  | Raw r -> if W.get r.w (idx_w tid) <> slot then W.set r.w (idx_w tid) slot

(* D3: publish the link. *)
let announce t ~tid ~slot link =
  match t.store with
  | Cells c -> P.write c.read_addr.(tid).(slot) (Value.enc_link link)
  | Raw r -> W.set r.w (ra_w t tid slot) (Value.enc_link link)

(* D6: atomically clear the announcement, returning what was there —
   either our own link encoding (not helped) or a helper's answer. *)
let retract t ~tid ~slot =
  match t.store with
  | Cells c -> P.swap c.read_addr.(tid).(slot) 0
  | Raw r -> W.swap r.w (ra_w t tid slot) 0

(* D1–D6 in one stub call ([Native]): the caller's per-thread
   context for {!Atomics.Words.deref_link}. Words 0 and 1 receive the
   node D4 read and the slot D1 chose; under [Sim] the context holds
   those two words only, written by the caller's unfused sequence.
   Each context is padded ({!Atomics.Backend.padded}): the stub writes
   words 0–1 on every deref, and unpadded they shared a line with the
   next domain's geometry words. *)
let deref_ctx t ~tid ~node_geom =
  B.padded
    (match t.store with
    | Cells _ -> [| 0; 0 |]
    | Raw _ ->
        [| 0; 0; idx_w tid; busy_w t tid 0; ra_w t tid 0; line; t.n;
           node_geom.(0); node_geom.(1) |])

let ctx_words t = match t.store with Cells _ -> 2 | Raw _ -> 9

let[@inline] deref_fused t ~arena ~ctx link =
  match t.store with
  | Raw r ->
      let n1 = W.deref_link r.w ~arena ~link ~enc:(Value.enc_link link) ~ctx in
      if ctx.(1) < 0 then no_free_slot ();
      n1
  | Cells _ -> invalid_arg "Ann.deref_fused: Sim store"

(* H2 *)
let read_index t ~id =
  match t.store with
  | Cells c -> P.read c.index.(id)
  | Raw r -> W.get r.w (idx_w id)

(* H3 *)
let read_slot t ~id ~slot =
  match t.store with
  | Cells c -> P.read c.read_addr.(id).(slot)
  | Raw r -> W.get r.w (ra_w t id slot)

(* H4 / H8 *)
let busy_incr t ~id ~slot =
  match t.store with
  | Cells c -> ignore (P.faa c.busy.(id).(slot) 1)
  | Raw r -> ignore (W.faa r.w (busy_w t id slot) 1)

let busy_decr t ~id ~slot =
  match t.store with
  | Cells c -> ignore (P.faa c.busy.(id).(slot) (-1))
  | Raw r -> ignore (W.faa r.w (busy_w t id slot) (-1))

(* H6: answer the announcement — replace the link encoding with the
   freshly de-referenced node pointer. *)
let answer_cas t ~id ~slot ~link node =
  match t.store with
  | Cells c -> P.cas c.read_addr.(id).(slot) ~old:(Value.enc_link link) ~nw:node
  | Raw r ->
      W.cas r.w (ra_w t id slot) ~old:(Value.enc_link link) ~nw:node

(* Batched H2+H3 sweep for a helping pass: the first row [id >= from]
   whose currently-indexed slot announces exactly [target] (a
   [Value.enc_link] encoding), or -1. Native rows are scanned by one
   C stub call over the raw block; Sim rows fall back to the per-word
   loop with identical reads. The result is a hint — the
   announcement can move between the scan and the caller's own H3
   re-read, which the helping protocol already tolerates. *)
let scan_announced t ~from target =
  match t.store with
  | Raw r -> W.ann_scan r.w ~geom:r.geom ~from target
  | Cells c ->
      let rec go id =
        if id >= t.n then -1
        else
          let slot = P.read c.index.(id) in
          if
            slot >= 0 && slot < t.n
            && P.read c.read_addr.(id).(slot) = target
          then id
          else go (id + 1)
      in
      go from

(* Tolerant sweep for the post-run auditor: every slot still holding a
   helper's node-pointer answer. A crashed owner never retracts, so
   the answer keeps a +1 mm_ref contribution alive (H6 gave the node a
   reference on the announcer's behalf) — the auditor attributes such
   nodes to the crashed thread. Announcement encodings (negative) and
   empty slots are skipped; never raises. *)
let raw_slot t id s =
  match t.store with
  | Cells c -> Atomic.get c.read_addr.(id).(s)
  | Raw r -> W.get r.w (ra_w t id s)

let answers t =
  let acc = ref [] in
  for id = t.n - 1 downto 0 do
    for s = t.n - 1 downto 0 do
      let v = raw_slot t id s in
      if v > 0 then acc := (id, Value.unmark v) :: !acc
    done
  done;
  !acc

(* Recovery (quiescent-survivors protocol) --------------------------- *)

(* Wipe a declared-dead owner's whole row: swap every slot to 0 and
   return [(slots_cleared, answers)], where [answers] are the
   node-pointer answers found — each still holds the reference H6
   acquired on the dead announcer's behalf, which the caller must
   release. Clearing the row also stops future helpers from answering
   into it (H3 re-reads the slot before the H6 CAS), so no new
   references can be stranded against the dead thread. *)
let clear_row t ~tid =
  let cleared = ref 0 and answers = ref [] in
  for s = t.n - 1 downto 0 do
    let v =
      match t.store with
      | Cells c -> P.swap c.read_addr.(tid).(s) 0
      | Raw r -> W.swap r.w (ra_w t tid s) 0
    in
    if v <> 0 then begin
      incr cleared;
      if v > 0 then answers := Value.unmark v :: !answers
    end
  done;
  (!cleared, !answers)

(* Reset stale busy claims. At quiescence with the survivors drained,
   no live thread is between H4 and H8, so any non-zero busy count was
   left by a helper that crashed mid-help; zeroing it makes the row's
   slots reusable again. Returns the number of claims cleared. *)
let clear_busy t =
  let cleared = ref 0 in
  for id = 0 to t.n - 1 do
    for s = 0 to t.n - 1 do
      let b =
        match t.store with
        | Cells c -> Atomic.get c.busy.(id).(s)
        | Raw r -> W.get r.w (busy_w t id s)
      in
      if b <> 0 then begin
        (match t.store with
        | Cells c -> Atomic.set c.busy.(id).(s) 0
        | Raw r -> W.set r.w (busy_w t id s) 0);
        incr cleared
      end
    done
  done;
  !cleared

(* Quiescent checks ------------------------------------------------- *)

let validate t =
  let raw_busy id s =
    match t.store with
    | Cells c -> Atomic.get c.busy.(id).(s)
    | Raw r -> W.get r.w (busy_w t id s)
  in
  for id = 0 to t.n - 1 do
    for s = 0 to t.n - 1 do
      let b = raw_busy id s in
      if b <> 0 then
        failwith
          (Printf.sprintf "Ann: busy[%d][%d] = %d at quiescence" id s b);
      let v = raw_slot t id s in
      if v <> 0 then
        failwith
          (Printf.sprintf "Ann: readAddr[%d][%d] = %d at quiescence" id s v)
    done
  done
