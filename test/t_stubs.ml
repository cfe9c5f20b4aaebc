(* Differential properties for the fused C stubs: each generates a word
   state and the stub's arguments, runs the Sim arm (the OCaml
   sequence over [int Atomic.t] cells) and the Native arm (the stub
   over raw blocks), and requires the same results and the same final
   value in every word.

   The generator is seeded from QCHECK_SEED when it is set, otherwise
   at random; a failure prints the shrunk case and the seed, and

     QCHECK_SEED=<seed> dune exec test/test_main.exe -- test stubs

   replays the same cases and the same shrink. *)

open Helpers
module Gc = Wfrc.Gc
module Ann = Wfrc.Ann
module B = Atomics.Backend

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> int_of_string s
  | None -> Random.State.bits (Random.State.make_self_init ())

(* [f] returns the mismatches between the arms; none is a pass. *)
let prop ?(count = 300) name arb f =
  let check case =
    match f case with
    | [] -> true
    | diffs ->
        QCheck.Test.fail_reportf "%s@.replay: QCHECK_SEED=%d"
          (String.concat "; " diffs) seed
  in
  let n, _, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| seed |])
      (QCheck.Test.make ~count ~name arb check)
  in
  (n, `Quick, run)

(* Named word lists, compared pointwise. *)
let diff_words sim native =
  List.concat
    (List.map2
       (fun (name, s) (_, n) ->
         if s = n then [] else [ Printf.sprintf "%s: sim %d, native %d" name s n ])
       sim native)

(* Every announcement word: annIndex, annReadAddr and annBusy. *)
let ann_words ann =
  let n = Ann.threads ann in
  List.concat
    (List.init n (fun id ->
         (Printf.sprintf "annIndex[%d]" id, Ann.read_index ann ~id)
         :: List.concat
              (List.init n (fun s ->
                   [
                     ( Printf.sprintf "annReadAddr[%d][%d]" id s,
                       Ann.read_slot ann ~id ~slot:s );
                     ( Printf.sprintf "annBusy[%d][%d]" id s,
                       Ann.read_busy ann ~id ~slot:s );
                   ]))))

(* A slot word from a small code: [v < 0] announces the link [v]
   encodes, [v > 0] is a helper's answer [v], 0 leaves the slot empty.
   Only the pool's own operations write it, so the Sim arm's D2 shadow
   stays in step with the cells. *)
let set_slot ann ~id ~slot v =
  if v < 0 then Ann.announce ann ~tid:id ~slot (Value.dec_link v)
  else if v > 0 then begin
    Ann.announce ann ~tid:id ~slot 0;
    ignore (Ann.answer_cas ann ~id ~slot ~link:0 v)
  end

(* ---- DeRefLink D1–D6: [Words.deref_link] against the Sim sequence -- *)

let cap = 4
let num_roots = 2

(* (threads - 1, caller, index, busy row, slot row, link, target,
   mark, target mm_ref). The link is a root or link 0 of a node;
   target 0 is null. Rows are 4 wide and cut to the thread count.
   Every range holds 0, which is where QCheck's integer shrinker
   heads. *)
let deref_case =
  QCheck.(
    tup9 (int_range 0 3) (int_range 0 3) (int_range 0 3)
      (list_of_size (Gen.return 4) (int_range 0 2))
      (list_of_size (Gen.return 4) (int_range (-4) 4))
      (int_range 0 (num_roots + cap - 1))
      (int_range 0 cap) bool (int_range 0 6))

let deref_setup backend (n, tid, index, busy, slots, link, target, mark, rc) =
  let n = n + 1 in
  let gc =
    Gc.create
      (Mm_intf.config ~backend ~threads:n ~capacity:cap ~num_links:1
         ~num_data:1 ~num_roots ())
  in
  let ann = Gc.announcements gc and arena = Gc.arena gc in
  let tid = tid mod n in
  List.iteri
    (fun s b ->
      if s < n then
        for _ = 1 to b do
          Ann.busy_incr ann ~id:tid ~slot:s
        done)
    busy;
  Ann.set_index ann ~tid (index mod n);
  List.iteri (fun s v -> if s < n then set_slot ann ~id:tid ~slot:s v) slots;
  let link =
    if link < num_roots then Arena.root_addr arena link
    else Arena.link_addr arena (Value.of_handle (link - num_roots + 1)) 0
  in
  if target > 0 then begin
    let p = Value.of_handle target in
    Arena.write arena link (if mark then Value.mark p else p);
    Arena.write arena (Arena.mm_ref_addr arena p) rc
  end;
  (gc, tid, link)

let gc_words gc =
  let arena = Gc.arena gc in
  ann_words (Gc.announcements gc)
  @ List.init num_roots (fun r ->
        (Printf.sprintf "root[%d]" r, Arena.read arena (Arena.root_addr arena r)))
  @ List.concat
      (List.init cap (fun i ->
           let p = Value.of_handle (i + 1) in
           let field f v = (Printf.sprintf "node%d.%s" (i + 1) f, v) in
           [
             field "mm_ref" (Arena.read_mm_ref arena p);
             field "mm_next" (Arena.read_mm_next arena p);
             field "link0" (Arena.read_link arena p 0);
             field "data0" (Arena.read_data arena p 0);
           ]))

let deref_run backend case =
  let gc, tid, link = deref_setup backend case in
  (* Link addresses are physical, so n1 is compared as "the link's own
     encoding" or as the word itself. *)
  let r =
    match Gc.deref_d1_d6 gc ~tid link with
    | n1, node, slot ->
        Printf.sprintf "n1 %s, node %d, slot %d"
          (if n1 = Value.enc_link link then "own link" else string_of_int n1)
          node slot
    | exception Failure m -> "failure: " ^ m
  in
  (r, gc_words gc)

let deref_prop =
  prop "deref_link = the Sim D1-D6 sequence, word for word" deref_case
    (fun case ->
      let rs, ws = deref_run B.Sim case in
      let rn, wn = deref_run B.Native case in
      (if rs = rn then [] else [ Printf.sprintf "sim %s; native %s" rs rn ])
      @ diff_words ws wn)

(* ---- The H2+H3 sweep: [Words.ann_scan] against the Cells arm ------ *)

(* (threads - 1, every row's index — possibly out of range —, every
   slot word row-major on a 4-wide grid, cursor, target link). *)
let scan_case =
  QCheck.(
    quad (int_range 0 3)
      (list_of_size (Gen.return 4) (int_range (-1) 4))
      (list_of_size (Gen.return 16) (int_range (-3) 3))
      (pair (int_range 0 4) (int_range 0 2)))

let scan_run backend (n, index, slots, (from, target)) =
  let n = n + 1 in
  let ann = Ann.create ~backend ~threads:n () in
  List.iteri (fun id i -> if id < n then Ann.set_index ann ~tid:id i) index;
  List.iteri
    (fun k v ->
      let id = k / 4 and slot = k mod 4 in
      if id < n && slot < n then set_slot ann ~id ~slot v)
    slots;
  let hit =
    Ann.scan_announced ann ~from:(min from n) (Value.enc_link target)
  in
  (hit, ann_words ann)

let scan_prop =
  prop "ann_scan = the Cells H2+H3 sweep" scan_case (fun case ->
      let hs, ws = scan_run B.Sim case in
      let hn, wn = scan_run B.Native case in
      (if hs = hn then [] else [ Printf.sprintf "row: sim %d, native %d" hs hn ])
      @ diff_words ws wn)

let suite = [ deref_prop; scan_prop ]
