(* Michael–Scott queue against the scheme-independent MM signature.

   Two root cells (head, tail) and a sentinel node. The dequeuer never
   moves head past tail (the standard first==last check), which keeps
   the tail link pointing at a node still in the queue — necessary for
   the HP/EBR schemes, whose safety derives from [terminate] being
   called only on unlinked nodes.

   The dequeuer reads the tail link uncounted (DESIGN.md §6.5): [last]
   is only compared with [first], which is held, and is the [cas_link]
   [old] only when the two are equal. A pointer equal to a held node
   names that node, since held nodes are never reclaimed, so the
   comparison has no ABA; the value is the one a [deref]'s link read
   would have returned.

   The enqueuer reads [last.next] uncounted too: [last] is held, and
   an MS-queue next word changes only once, from null to a node, until
   its node is reclaimed. A non-null [nextw] is therefore pinned by
   [last]'s own link for as long as [last] is held, which is all the
   tail swing's [cas_link] needs of its [nw].

   Node layout: link 0 = next, data 0 = value. *)

module Mm = Mm_intf
module Value = Shmem.Value

type t = {
  mm : Mm.instance;
  head : Value.addr;
  tail : Value.addr;
}

let create mm ~head_root ~tail_root ~tid =
  let arena = Mm.arena mm in
  if Shmem.Layout.num_links (Shmem.Arena.layout arena) < 1 then
    invalid_arg "Queue.create: layout needs a next link";
  if Shmem.Layout.num_data (Shmem.Arena.layout arena) < 1 then
    invalid_arg "Queue.create: layout needs a value word";
  let head = Shmem.Arena.root_addr arena head_root in
  let tail = Shmem.Arena.root_addr arena tail_root in
  let dummy = Mm.alloc mm ~tid in
  Mm.store_link mm ~tid (Shmem.Arena.link_addr arena dummy 0) Value.null;
  Mm.store_link mm ~tid head dummy;
  Mm.store_link mm ~tid tail dummy;
  Mm.release mm ~tid dummy;
  { mm; head; tail }

let next_addr t p = Shmem.Arena.link_addr (Mm.arena t.mm) p 0

let enqueue t ~tid v =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let arena = Mm.arena t.mm in
  let n = Mm.alloc t.mm ~tid in
  Shmem.Arena.write_data arena n 0 v;
  Mm.store_link t.mm ~tid (next_addr t n) Value.null;
  let rec attempt () =
    let last = Mm.deref t.mm ~tid t.tail in
    let nextw = Shmem.Arena.read arena (next_addr t last) in
    if not (Value.is_null nextw) then begin
      (* Tail is lagging: help advance it, then retry. *)
      ignore (Mm.cas_link t.mm ~tid t.tail ~old:last ~nw:(Value.unmark nextw));
      Mm.release t.mm ~tid last;
      attempt ()
    end
    else if Mm.cas_link t.mm ~tid (next_addr t last) ~old:Value.null ~nw:n
    then begin
      (* Linked; swing the tail (best effort). *)
      ignore (Mm.cas_link t.mm ~tid t.tail ~old:last ~nw:n);
      Mm.release t.mm ~tid last
    end
    else begin
      Mm.release t.mm ~tid last;
      attempt ()
    end
  in
  attempt ();
  Mm.release t.mm ~tid n

let dequeue t ~tid =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let arena = Mm.arena t.mm in
  let rec attempt () =
    let first = Mm.deref t.mm ~tid t.head in
    let last = Shmem.Arena.read arena t.tail in
    let nextw = Mm.deref t.mm ~tid (next_addr t first) in
    let release_all () =
      if not (Value.is_null nextw) then Mm.release t.mm ~tid nextw;
      Mm.release t.mm ~tid first
    in
    if first = last then
      if Value.is_null nextw then begin
        release_all ();
        None
      end
      else begin
        (* Tail lagging behind a pending enqueue: help, retry. *)
        ignore
          (Mm.cas_link t.mm ~tid t.tail ~old:last ~nw:(Value.unmark nextw));
        release_all ();
        attempt ()
      end
    else if Value.is_null nextw then begin
      (* Transient: head moved under us; retry. *)
      release_all ();
      attempt ()
    end
    else begin
      let v = Shmem.Arena.read_data arena (Value.unmark nextw) 0 in
      if Mm.cas_link t.mm ~tid t.head ~old:first ~nw:(Value.unmark nextw)
      then begin
        release_all ();
        Mm.terminate t.mm ~tid first;
        Some v
      end
      else begin
        release_all ();
        attempt ()
      end
    end
  in
  attempt ()

let is_empty t ~tid =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let first = Mm.deref t.mm ~tid t.head in
  (* only null-tested: a plain read *)
  let nextw = Shmem.Arena.read (Mm.arena t.mm) (next_addr t first) in
  Mm.release t.mm ~tid first;
  Value.is_null nextw

let drain t ~tid =
  let rec go acc = match dequeue t ~tid with
    | None -> List.rev acc
    | Some v -> go (v :: acc)
  in
  go []

(* Quiescent teardown: discard leftovers, then free the sentinel and
   null both root cells so they can host a fresh queue. After the
   drain the current sentinel is the only node left and both roots
   point at it; nulling them makes it unreachable, which licenses the
   terminate on every scheme (same ordering as [dequeue]).

   Idempotent, and tolerant of a destroyer that crashed between the
   two root stores: if the head root is already null, there is
   nothing to drain — the second call just finishes clearing the tail
   root (releasing the sentinel it may still pin) instead of
   dereferencing null. Crash-adopting teardown loops rely on being
   able to call this unconditionally. *)
let destroy t ~tid =
  let live =
    Mm.enter_op t.mm ~tid;
    Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
    let s = Mm.deref t.mm ~tid t.head in
    if Value.is_null s then false
    else begin
      Mm.release t.mm ~tid s;
      true
    end
  in
  if not live then begin
    Mm.enter_op t.mm ~tid;
    Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
    let s = Mm.deref t.mm ~tid t.tail in
    if not (Value.is_null s) then begin
      Mm.store_link t.mm ~tid t.tail Value.null;
      Mm.release t.mm ~tid s;
      Mm.terminate t.mm ~tid s
    end;
    0
  end
  else begin
    let leftovers = List.length (drain t ~tid) in
    Mm.enter_op t.mm ~tid;
    Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
    let s = Mm.deref t.mm ~tid t.head in
    Mm.store_link t.mm ~tid t.head Value.null;
    Mm.store_link t.mm ~tid t.tail Value.null;
    Mm.release t.mm ~tid s;
    Mm.terminate t.mm ~tid s;
    leftovers
  end
