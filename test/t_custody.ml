(* Quiescent checks against deliberately damaged allocator state.

   The corruption matrix damages a quiescent instance of every scheme,
   on Sim and on the sharded Native store, through the arena's own
   [mm_next]/[mm_ref] words, and asserts that [validate] rejects each
   kind of damage: a free-chain cycle, a node on the free store twice,
   a node both free and pending, and (RC schemes) a free node whose
   count is not the claimed 1 or an allocated node with an odd count.
   The audit cases pin that a node one thread parks twice (hp retired
   list, ebr limbo bag) fails the custody auditor, not only
   [validate]. *)

open Helpers
module B = Atomics.Backend
module Audit = Harness.Audit

let backends = [ ("sim", `Sim); ("native-sharded", `Sharded) ]

let cfg_of = function
  | `Sim ->
      Mm.config ~threads:2 ~capacity:16 ~num_links:1 ~num_data:1
        ~num_roots:1 ()
  | `Sharded ->
      Mm.config ~backend:B.Native ~shards:2 ~batch:2 ~threads:2
        ~capacity:16 ~num_links:1 ~num_data:1 ~num_roots:1 ()

(* The free chains of a fresh instance, each as its handle list from
   head to tail. Every node starts free and on a chain (caches and
   return buffers start empty), so the heads are exactly the nodes no
   [mm_next] word points at. *)
let chains mm =
  let arena = Mm.arena mm in
  let cap = Arena.capacity arena in
  let next h = Arena.read_mm_next arena (Value.of_handle h) in
  let targeted = Array.make (cap + 1) false in
  for h = 1 to cap do
    let n = next h in
    if not (Value.is_null n) then targeted.(Value.handle n) <- true
  done;
  let rec walk h steps =
    if steps > cap then Alcotest.fail "fresh free chain is cyclic"
    else
      let n = next h in
      h :: (if Value.is_null n then [] else walk (Value.handle n) (steps + 1))
  in
  List.filter_map
    (fun h -> if targeted.(h) then None else Some (walk h 0))
    (List.init cap (fun i -> i + 1))

let last l = List.nth l (List.length l - 1)

let set_next mm h target =
  Arena.write_mm_next (Mm.arena mm) (Value.of_handle h) target

let set_ref mm h v =
  let arena = Mm.arena mm in
  Arena.write arena (Arena.mm_ref_addr arena (Value.of_handle h)) v

(* Park one node in per-thread allocator custody — the scheme's
   [pending] class — and return its handle: an annAlloc donation
   (wfrc: a free parks the node in the freeing thread's own empty
   cell),
   an hp retired list, an ebr limbo bag. [None] for schemes without
   such a class. *)
let park_pending scheme mm =
  let tid = 0 in
  match scheme with
  | "wfrc" | "wfrc_deferred" | "hp" | "ebr" ->
      Mm.enter_op mm ~tid;
      let p = Mm.alloc mm ~tid in
      if scheme = "hp" || scheme = "ebr" then Mm.terminate mm ~tid p;
      if scheme <> "ebr" then Mm.release mm ~tid p;
      Mm.exit_op mm ~tid;
      (* the deferred variant parks the decrement; quiescent
         inspection flushes it, which frees and donates the node *)
      ignore (Mm.free_count mm);
      let c = Mm.custody mm in
      if not (List.exists (fun (_, h) -> h = Value.handle p) c.Mm.pending)
      then Alcotest.failf "%s: node #%d did not land pending" scheme
          (Value.handle p);
      Some (Value.handle p)
  | _ -> None

let rejects ~what mm =
  match Mm.validate mm with
  | () -> Alcotest.failf "validate accepted %s" what
  | exception Failure _ -> ()

let matrix scheme backend () =
  let fresh () =
    let mm = mm_of scheme (cfg_of backend) in
    let cs = chains mm in
    if cs = [] then Alcotest.fail "no free chain";
    (mm, cs)
  in
  let refcounted = List.mem scheme rc_schemes in
  (* a free-chain cycle: the first chain's tail points back at its
     head *)
  (let mm, cs = fresh () in
   let c = List.hd cs in
   Mm.validate mm;
   set_next mm (last c) (Value.of_handle (List.hd c));
   rejects ~what:"a free-chain cycle" mm);
  (* a node on the free store twice: the first chain's tail continues
     into a second chain (each of its nodes is then walked from both
     heads), or with a single chain into its own second node *)
  (let mm, cs = fresh () in
   let target =
     match cs with
     | c :: c' :: _ -> (last c, List.hd c')
     | [ (_ :: second :: _ as c) ] -> (last c, second)
     | _ -> Alcotest.fail "chain too short"
   in
   Mm.validate mm;
   set_next mm (fst target) (Value.of_handle (snd target));
   rejects ~what:"a node on the free store twice" mm);
  (* a node both free and pending: splice a parked node onto the tail
     of a chain *)
  (let mm, cs = fresh () in
   match park_pending scheme mm with
   | None -> ()
   | Some h ->
       Mm.validate mm;
       let tail = last (last cs) in
       if tail = h then Alcotest.fail "parked node is a chain tail";
       set_next mm tail (Value.of_handle h);
       set_next mm h Value.null;
       rejects ~what:"a node both free and pending" mm);
  if refcounted then begin
    (* a free node whose count is not the claimed 1 *)
    (let mm, cs = fresh () in
     Mm.validate mm;
     set_ref mm (last (List.hd cs)) 2;
     rejects ~what:"a free node with mm_ref 2" mm);
    (* an allocated node with an odd count *)
    let mm, _ = fresh () in
    let p = Mm.alloc mm ~tid:0 in
    Mm.validate mm;
    set_ref mm (Value.handle p) 3;
    rejects ~what:"an allocated node with mm_ref 3" mm
  end

let matrix_tests =
  List.concat_map
    (fun scheme ->
      List.map
        (fun (bname, backend) ->
          tc
            (Printf.sprintf "validate: %s %s rejects every corruption" scheme
               bname)
            (matrix scheme backend))
        backends)
    all_schemes

(* A node one thread retires (hp) or bags (ebr) twice is double
   custody: the auditor must flag it, exactly as [validate] does. *)
let double_park_tests =
  List.map
    (fun scheme ->
      tc (scheme ^ ": audit rejects a node parked twice by one thread")
        (fun () ->
          let mm = mm_of scheme (cfg_of `Sim) in
          Mm.enter_op mm ~tid:0;
          let p = Mm.alloc mm ~tid:0 in
          if scheme = "hp" then Mm.release mm ~tid:0 p;
          Mm.terminate mm ~tid:0 p;
          Mm.terminate mm ~tid:0 p;
          Mm.exit_op mm ~tid:0;
          let r = Audit.run mm in
          check_bool ("audit flags it: " ^ Audit.to_string r) false
            (Audit.ok r);
          fails_with (fun () -> Mm.validate mm)))
    [ "hp"; "ebr" ]

let suite = matrix_tests @ double_park_tests
