(* Treiber stack written against the scheme-independent MM signature,
   following the paper's §3.2 usage rules: links are only modified via
   [cas_link]/[store_link] (which manage the links' own references and,
   on WFRC, perform the HelpDeRef duty), and every reference acquired
   by [alloc]/[deref] is released before the operation returns.

   Node layout: link 0 = next, data 0 = value. Requires
   [num_links >= 1], [num_data >= 1], one root cell (the top link).

   Pop reads the top node's next word uncounted (DESIGN.md §6.5): it
   is only the [cas_link] [nw], and a pushed node's next link never
   changes until the node is reclaimed, so it is pinned by the held
   [old]'s link. Michael's hazard-pointer Treiber stack leaves it
   unprotected too. *)

module Mm = Mm_intf
module Value = Shmem.Value

type t = {
  mm : Mm.instance;
  top : Value.addr;
}

let create mm ~root =
  let arena = Mm.arena mm in
  if Shmem.Layout.num_links (Shmem.Arena.layout arena) < 1 then
    invalid_arg "Stack.create: layout needs a next link";
  if Shmem.Layout.num_data (Shmem.Arena.layout arena) < 1 then
    invalid_arg "Stack.create: layout needs a value word";
  { mm; top = Shmem.Arena.root_addr arena root }

let push t ~tid v =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let arena = Mm.arena t.mm in
  let n = Mm.alloc t.mm ~tid in
  Shmem.Arena.write_data arena n 0 v;
  let next = Shmem.Arena.link_addr arena n 0 in
  let rec attempt () =
    let old = Mm.deref t.mm ~tid t.top in
    (* Transfer the top node into the new node's next link; the link
       share is managed by store_link (the slot is still private). *)
    Mm.store_link t.mm ~tid next old;
    let ok = Mm.cas_link t.mm ~tid t.top ~old ~nw:n in
    if not (Value.is_null old) then Mm.release t.mm ~tid old;
    if not ok then attempt ()
  in
  attempt ();
  Mm.release t.mm ~tid n

let pop t ~tid =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let arena = Mm.arena t.mm in
  let rec attempt () =
    let old = Mm.deref t.mm ~tid t.top in
    if Value.is_null old then None
    else begin
      let next = Shmem.Arena.read arena (Shmem.Arena.link_addr arena old 0) in
      if Mm.cas_link t.mm ~tid t.top ~old ~nw:next then begin
        let v = Shmem.Arena.read_data arena old 0 in
        Mm.release t.mm ~tid old;
        Mm.terminate t.mm ~tid old;
        Some v
      end
      else begin
        Mm.release t.mm ~tid old;
        attempt ()
      end
    end
  in
  attempt ()

(* Only null-tests the top word: a plain read. *)
let is_empty t ~tid:_ = Value.is_null (Shmem.Arena.read (Mm.arena t.mm) t.top)

(* Pop everything (quiescent teardown helper for leak tests). *)
let drain t ~tid =
  let rec go acc = match pop t ~tid with
    | None -> List.rev acc
    | Some v -> go (v :: acc)
  in
  go []
