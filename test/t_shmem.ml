(* Layout and arena tests: addressing, field isolation, atomic word
   operations, inverse mapping. *)

open Helpers
module Layout = Shmem.Layout
module Value = Shmem.Value
module Arena = Shmem.Arena

let layout_tests =
  [
    tc "node_size accounting" (fun () ->
        let l = Layout.create ~num_links:3 ~num_data:2 in
        check_int "size" 7 (Layout.node_size l);
        check_int "links" 3 (Layout.num_links l);
        check_int "data" 2 (Layout.num_data l));
    tc "mm_ref is the first field (Lemma 1 layout)" (fun () ->
        check_int "offset" 0 Layout.mm_ref_offset;
        check_int "next" 1 Layout.mm_next_offset);
    tc "offsets are disjoint and ordered" (fun () ->
        let l = Layout.create ~num_links:2 ~num_data:2 in
        check_int "link0" 2 (Layout.link_offset l 0);
        check_int "link1" 3 (Layout.link_offset l 1);
        check_int "data0" 4 (Layout.data_offset l 0);
        check_int "data1" 5 (Layout.data_offset l 1));
    tc "out-of-range offsets rejected" (fun () ->
        let l = Layout.create ~num_links:1 ~num_data:1 in
        fails_with (fun () -> Layout.link_offset l 1);
        fails_with (fun () -> Layout.link_offset l (-1));
        fails_with (fun () -> Layout.data_offset l 1));
    tc "zero links and data allowed" (fun () ->
        let l = Layout.create ~num_links:0 ~num_data:0 in
        check_int "header only" Layout.header_size (Layout.node_size l));
    tc "negative sizes rejected" (fun () ->
        fails_with (fun () -> Layout.create ~num_links:(-1) ~num_data:0));
  ]

let mk_arena ?(capacity = 8) ?(num_roots = 3) () =
  let layout = Layout.create ~num_links:2 ~num_data:2 in
  Arena.create ~layout ~capacity ~num_roots ()

let arena_tests =
  [
    tc "creation geometry" (fun () ->
        let a = mk_arena () in
        check_int "capacity" 8 (Arena.capacity a);
        check_int "roots" 3 (Arena.num_roots a);
        check_int "cells" (3 + (8 * 6)) (Arena.num_cells a));
    tc "cells start at zero (null)" (fun () ->
        let a = mk_arena () in
        for i = 0 to Arena.num_cells a - 1 do
          if Arena.read a i <> 0 then Alcotest.failf "cell %d not zero" i
        done);
    tc "root addresses are the first cells" (fun () ->
        let a = mk_arena () in
        check_int "root0" 0 (Arena.root_addr a 0);
        check_int "root2" 2 (Arena.root_addr a 2);
        fails_with (fun () -> Arena.root_addr a 3));
    tc "node_base and handle bounds" (fun () ->
        let a = mk_arena () in
        check_int "first node after roots" 3 (Arena.node_base a 1);
        check_int "second node" 9 (Arena.node_base a 2);
        fails_with (fun () -> Arena.node_base a 0);
        fails_with (fun () -> Arena.node_base a 9));
    tc "field writes are isolated" (fun () ->
        let a = mk_arena () in
        let p1 = Value.of_handle 1 and p2 = Value.of_handle 2 in
        Arena.write a (Arena.mm_ref_addr a p1) 42;
        Arena.write_link a p1 0 7;
        Arena.write_link a p1 1 8;
        Arena.write_data a p1 0 9;
        Arena.write_data a p1 1 10;
        Arena.write_mm_next a p1 p2;
        check_int "ref" 42 (Arena.read_mm_ref a p1);
        check_int "l0" 7 (Arena.read_link a p1 0);
        check_int "l1" 8 (Arena.read_link a p1 1);
        check_int "d0" 9 (Arena.read_data a p1 0);
        check_int "d1" 10 (Arena.read_data a p1 1);
        check_int "next" p2 (Arena.read_mm_next a p1);
        (* neighbour untouched *)
        check_int "p2 ref" 0 (Arena.read_mm_ref a p2);
        check_int "p2 l0" 0 (Arena.read_link a p2 0));
    tc "marked pointers address the same node" (fun () ->
        let a = mk_arena () in
        let p = Value.of_handle 3 in
        check_int "ref addr" (Arena.mm_ref_addr a p)
          (Arena.mm_ref_addr a (Value.mark p));
        check_int "link addr" (Arena.link_addr a p 1)
          (Arena.link_addr a (Value.mark p) 1));
    tc "cas/faa/swap word semantics" (fun () ->
        let a = mk_arena () in
        let addr = Arena.root_addr a 0 in
        check_bool "cas hit" true (Arena.cas a addr ~old:0 ~nw:5);
        check_bool "cas miss" false (Arena.cas a addr ~old:0 ~nw:9);
        check_int "after cas" 5 (Arena.read a addr);
        let prev = Arena.faa a addr 3 in
        check_int "faa returns previous" 5 prev;
        check_int "after faa" 8 (Arena.read a addr);
        let old = Arena.swap a addr 100 in
        check_int "swap returns old" 8 old;
        check_int "after swap" 100 (Arena.read a addr));
    tc "owner_of inverse mapping" (fun () ->
        let a = mk_arena () in
        (match Arena.owner_of a 1 with
        | `Root 1 -> ()
        | _ -> Alcotest.fail "expected root 1");
        (match Arena.owner_of a (Arena.node_base a 2 + 4) with
        | `Node (2, 4) -> ()
        | _ -> Alcotest.fail "expected node 2 offset 4");
        fails_with (fun () -> Arena.owner_of a (-1));
        fails_with (fun () -> Arena.owner_of a (Arena.num_cells a)));
    tc "iter_nodes covers every handle once" (fun () ->
        let a = mk_arena () in
        let seen = ref [] in
        Arena.iter_nodes a (fun p -> seen := Value.handle p :: !seen);
        check_int "count" 8 (List.length !seen);
        check_bool "in order" true
          (List.rev !seen = List.init 8 (fun i -> i + 1)));
    tc "faa on mm_ref accumulates" (fun () ->
        let a = mk_arena () in
        let p = Value.of_handle 5 in
        Arena.faa_mm_ref a p 2;
        Arena.faa_mm_ref a p 2;
        Arena.faa_mm_ref a p (-2);
        check_int "net" 2 (Arena.read_mm_ref a p));
    tc "invalid creation rejected" (fun () ->
        let layout = Layout.create ~num_links:0 ~num_data:0 in
        fails_with (fun () -> Arena.create ~layout ~capacity:0 ~num_roots:0 ());
        fails_with (fun () -> Arena.create ~layout ~capacity:4 ~num_roots:(-1) ()));
  ]

(* Native-store addressing: the logical geometry must hold on the
   padded raw word store — owner_of is the uniform inverse, and
   physical padding words (between roots and after a node's last
   field) have no owner. *)
module B = Atomics.Backend

let mk_native_arena () =
  let layout = Layout.create ~num_links:2 ~num_data:2 in
  Arena.create ~backend:B.Native ~layout ~capacity:8 ~num_roots:3 ()

let native_arena_tests =
  let name s = s ^ " [native]" in
  [
    tc (name "addressing round-trips through owner_of") (fun () ->
        let a = mk_native_arena () in
        for r = 0 to Arena.num_roots a - 1 do
          match Arena.owner_of a (Arena.root_addr a r) with
          | `Root r' -> check_int "root index" r r'
          | `Node _ -> Alcotest.failf "root %d mapped to a node" r
        done;
        for h = 1 to Arena.capacity a do
          let p = Value.of_handle h in
          let field what addr logical =
            match Arena.owner_of a addr with
            | `Node (h', off) ->
                check_int (what ^ " handle") h h';
                check_int (what ^ " offset") logical off
            | `Root _ -> Alcotest.failf "%s of node %d mapped to a root" what h
          in
          field "mm_ref" (Arena.mm_ref_addr a p) 0;
          field "mm_next" (Arena.mm_next_addr a p) 1;
          for i = 0 to 1 do
            field "link" (Arena.link_addr a p i) (2 + i)
          done;
          for j = 0 to 1 do
            field "data" (Arena.data_addr a p j) (4 + j)
          done
        done);
    tc (name "marked pointers address the same node") (fun () ->
        let a = mk_native_arena () in
        let p = Value.of_handle 3 in
        check_int "ref addr" (Arena.mm_ref_addr a p)
          (Arena.mm_ref_addr a (Value.mark p));
        check_int "link addr" (Arena.link_addr a p 1)
          (Arena.link_addr a (Value.mark p) 1));
    tc (name "word ops keep figure 2 semantics") (fun () ->
        let a = mk_native_arena () in
        let addr = Arena.mm_ref_addr a (Value.of_handle 5) in
        check_bool "cas hit" true (Arena.cas a addr ~old:0 ~nw:5);
        check_bool "cas miss" false (Arena.cas a addr ~old:0 ~nw:9);
        check_int "faa returns previous" 5 (Arena.faa a addr 3);
        check_int "swap returns old" 8 (Arena.swap a addr 100);
        check_int "final" 100 (Arena.read a addr);
        (* neighbours untouched *)
        check_int "prev node" 0 (Arena.read_mm_ref a (Value.of_handle 4));
        check_int "next node" 0 (Arena.read_mm_ref a (Value.of_handle 6)));
    tc (name "out-of-range addresses rejected") (fun () ->
        let a = mk_native_arena () in
        fails_with (fun () -> Arena.owner_of a (-1));
        fails_with (fun () -> Arena.node_base a 0);
        fails_with (fun () -> Arena.node_base a 9);
        fails_with (fun () -> Arena.root_addr a 3);
        (* far past the physical end of the store *)
        fails_with (fun () -> Arena.owner_of a 1_000_000);
        fails_with (fun () -> Arena.read a 1_000_000));
    tc "unboxed padding words have no owner" (fun () ->
        let a = mk_native_arena () in
        (* between root 0 and root 1: roots are line-strided *)
        fails_with ~substring:"padding" (fun () ->
            Arena.owner_of a (Arena.root_addr a 0 + 1)));
    tc "unboxed nodes are whole 64-byte lines" (fun () ->
        let native ~num_links ~num_data =
          let layout = Layout.create ~num_links ~num_data in
          Arena.create ~backend:B.Native ~layout ~capacity:4 ~num_roots:3 ()
        in
        let stride a = Arena.node_base a 2 - Arena.node_base a 1 in
        (* <= 8 words: each node is exactly one line, every field in it
           (8 words per 64-byte line of the page-aligned block) *)
        let a = native ~num_links:3 ~num_data:3 in
        check_int "8-word stride" 8 (stride a);
        for h = 1 to Arena.capacity a do
          let p = Value.of_handle h in
          let line = Arena.node_base a h / 8 in
          check_int "node starts a line" 0 (Arena.node_base a h mod 8);
          let same what addr = check_int (what ^ " line") line (addr / 8) in
          same "mm_ref" (Arena.mm_ref_addr a p);
          same "mm_next" (Arena.mm_next_addr a p);
          for i = 0 to 2 do
            same "link" (Arena.link_addr a p i);
            same "data" (Arena.data_addr a p i)
          done
        done;
        (* 9 words: two lines per node, still line-aligned *)
        let a = native ~num_links:3 ~num_data:4 in
        check_int "9-word stride" 16 (stride a);
        check_int "aligned" 0 (Arena.node_base a 3 mod 8);
        (* owner_of is the exact inverse over every physical word *)
        let a = mk_native_arena () in
        let expect = Hashtbl.create 64 in
        for r = 0 to Arena.num_roots a - 1 do
          Hashtbl.add expect (Arena.root_addr a r) (`Root r)
        done;
        let node_size = Layout.node_size (Arena.layout a) in
        for h = 1 to Arena.capacity a do
          for off = 0 to node_size - 1 do
            Hashtbl.add expect (Arena.node_base a h + off) (`Node (h, off))
          done
        done;
        let cap = Arena.capacity a in
        let size = Arena.node_base a cap + stride a in
        for addr = 0 to size - 1 do
          match Hashtbl.find_opt expect addr with
          | Some owner ->
              if Arena.owner_of a addr <> owner then
                Alcotest.failf "word %d has the wrong owner" addr
          | None ->
              fails_with ~substring:"padding" (fun () -> Arena.owner_of a addr)
        done;
        fails_with (fun () -> Arena.owner_of a size));
    tc "word ops keep figure 2 semantics [native, two-line nodes]" (fun () ->
        (* 9 words: a node spans two lines; its last data word sits on
           the second line, next to the padding before node h+1 *)
        let layout = Layout.create ~num_links:3 ~num_data:4 in
        let a =
          Arena.create ~backend:B.Native ~layout ~capacity:8 ~num_roots:3 ()
        in
        let p = Value.of_handle 5 in
        let addr = Arena.data_addr a p 3 in
        check_bool "second line" true (addr / 8 <> Arena.node_base a 5 / 8);
        check_bool "cas hit" true (Arena.cas a addr ~old:0 ~nw:5);
        check_bool "cas miss" false (Arena.cas a addr ~old:0 ~nw:9);
        check_int "faa returns previous" 5 (Arena.faa a addr 3);
        check_int "swap returns old" 8 (Arena.swap a addr 100);
        check_int "final" 100 (Arena.read_data a p 3);
        (* the rest of the node and its neighbours untouched *)
        check_int "own data 2" 0 (Arena.read_data a p 2);
        check_int "own mm_ref" 0 (Arena.read_mm_ref a p);
        check_int "next node" 0 (Arena.read_mm_ref a (Value.of_handle 6));
        check_int "prev node" 0 (Arena.read_data a (Value.of_handle 4) 3));
  ]

let prop_tests =
  [
    qc "owner_of is a true inverse"
      QCheck.(pair (int_range 1 8) (int_range 0 5))
      (fun (h, off) ->
        let a = mk_arena () in
        match Arena.owner_of a (Arena.node_base a h + off) with
        | `Node (h', off') -> h' = h && off' = off
        | `Root _ -> false);
    qc "swap sequence preserves last write" (QCheck.list QCheck.small_int)
      (fun vs ->
        let a = mk_arena () in
        let addr = Arena.root_addr a 0 in
        List.iter (fun v -> ignore (Arena.swap a addr v)) vs;
        Arena.read a addr = (match List.rev vs with [] -> 0 | v :: _ -> v));
  ]

let suite = layout_tests @ arena_tests @ native_arena_tests @ prop_tests
