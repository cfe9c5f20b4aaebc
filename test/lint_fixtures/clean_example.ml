(* Fixture: correct reclamation idioms — the lint must stay quiet
   here. Expected: zero violations. *)

(* Straight-line acquire/use/release. *)
let read_root mm arena ~tid root =
  let w = Mm.deref mm ~tid root in
  let v = Arena.read_data arena (Value.unmark w) 0 in
  Mm.release mm ~tid w;
  v

(* The null-guard idiom: releasing on the non-null branch only is
   fine, because the null branch carries no reference. *)
let drop_next mm ~tid node =
  let w = Mm.deref mm ~tid (next_addr node) in
  if not (Value.is_null w) then Mm.release mm ~tid w

(* Ownership transfer: returning the acquired reference hands the
   obligation to the caller. *)
let take mm ~tid root = Mm.deref mm ~tid root

(* Hand-off to a helper counts as a transfer too. *)
let push_back stash mm ~tid root =
  let w = Mm.deref mm ~tid root in
  Stash.put stash w

(* Alias discharge: releasing the unmarked alias releases the node. *)
let drop_unmarked mm ~tid root =
  let w = Mm.deref mm ~tid root in
  let u = Value.unmark w in
  Mm.release mm ~tid u
