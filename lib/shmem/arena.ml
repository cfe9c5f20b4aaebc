[@@@wfrc.progress "wait_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* The simulated shared memory.

   One flat store of atomic words plays the role of the machine's
   shared memory (paper §2). The first [num_roots] cells are "root
   links" — the global link variables a data structure needs (queue
   head/tail, skiplist head links, ...). Nodes follow, each occupying
   a fixed block of cells. Node handle [h] (1-based) maps to base cell
   [nodes_base + (h-1) * node_stride].

   Cells are never deallocated, so the [mm_ref] word of a reclaimed
   node remains readable and FAA-able forever — precisely the
   "indefinitely present mm_ref field" assumption of paper §3.

   The backend picks the store behind the facade:

   - [Cells] ([Sim]): a dense [int Atomic.t] array. Every word
     operation crosses one scheduling point through the instrumented
     {!Atomics.Primitives} (the deterministic scheduler's granularity),
     carrying the cell's global address for the oracle hooks.

   - [Raw] ([Native]): a single page-aligned out-of-heap
     {!Atomics.Words} block. No box per cell, no GC traffic, stable
     addresses; C stubs compile each access to one [__atomic] SEQ_CST
     instruction. Every root sits on its own cache-line pair (roots
     are the cross-domain rendezvous words). A node keeps the paper's
     Fig. 3 word order — [mm_ref], [mm_next], links, data — in a block
     rounded up to whole 64-byte lines, so each node starts on a line
     boundary and a visit to it (the D4 link read, the D5/R1 [mm_ref]
     FAA, the R3 link collect) touches one line (two for nodes of more
     than 8 words).

   The two stores have different *physical* geometries, so all
   addressing goes through the geometry fields below; [Value.addr]
   values from one arena are meaningless in another (they always
   were — each arena also claims its own global address window). *)

module P = Atomics.Primitives
module Backend = Atomics.Backend
module Words = Atomics.Words

type store = Cells of P.cell array | Raw of Words.t

type t = {
  layout : Layout.t;
  capacity : int;
  num_roots : int;
  store : store;
  (* Physical geometry: where things live inside the store. *)
  root_stride : int; (* words per root slot *)
  nodes_base : int; (* physical address of node 1 *)
  node_stride : int; (* words per node block *)
  size : int; (* total physical words *)
  base : int; (* global address of cell 0, see [next_base] *)
}

(* Global address space: every arena claims a contiguous window of
   addresses, so [base + local addr] identifies one cell uniquely
   across all arenas alive in the process. The access validator
   ([Atomics.Schedpoint.hit_at]) receives these global addresses and
   can tell its own arena's words from everything else without any
   per-cell table. The counter is an [Atomic] only for safety if two
   domains ever create arenas concurrently; allocation order does not
   affect behaviour. *)
let next_base = Atomic.make 0

(* Words per 64-byte cache line: the Native node block's alignment
   unit. *)
let node_line = 8

let create ?(backend = Backend.Sim) ~layout ~capacity ~num_roots () =
  if capacity < 1 then invalid_arg "Arena.create: capacity";
  if num_roots < 0 then invalid_arg "Arena.create: num_roots";
  let node_size = Layout.node_size layout in
  let root_stride, nodes_base, node_stride =
    match backend with
    | Backend.Sim -> (1, num_roots, node_size)
    | Backend.Native ->
        (* Roots get a cache-line pair each, so node 1 starts on a line
           boundary of the page-aligned block; node blocks are whole
           64-byte lines in the logical word order. *)
        let line = Backend.cache_line_words in
        ( line,
          num_roots * line,
          (node_size + node_line - 1) / node_line * node_line )
  in
  let size = nodes_base + (capacity * node_stride) in
  let store =
    match backend with
    | Backend.Sim -> Cells (Array.init size (fun _ -> P.make 0))
    | Backend.Native -> Raw (Words.make size)
  in
  let base = Atomic.fetch_and_add next_base size in
  {
    layout;
    capacity;
    num_roots;
    store;
    root_stride;
    nodes_base;
    node_stride;
    size;
    base;
  }

let layout t = t.layout
let capacity t = t.capacity
let num_roots t = t.num_roots

(* Logical cell count (roots + capacity * node_size), independent of
   the physical padding — what the Sim-side analyzers iterate over. *)
let num_cells t = t.num_roots + (t.capacity * Layout.node_size t.layout)
let addr_base t = t.base

(* Addressing ------------------------------------------------------- *)

let root_addr t r =
  if r < 0 || r >= t.num_roots then invalid_arg "Arena.root_addr";
  r * t.root_stride

let check_handle t h =
  if h < 1 || h > t.capacity then invalid_arg "Arena.check_handle"

let node_base t h =
  check_handle t h;
  t.nodes_base + ((h - 1) * t.node_stride)

(* Inside a node block the physical offset of a field is its logical
   offset in both stores ([mm_ref] is word 0). *)
let mm_ref_addr t p = node_base t (Value.handle p)
let mm_next_addr t p = node_base t (Value.handle p) + Layout.mm_next_offset

let link_addr t p i =
  node_base t (Value.handle p) + Layout.link_offset t.layout i

let data_addr t p j =
  node_base t (Value.handle p) + Layout.data_offset t.layout j

(* [owner_of addr] inverts the mapping: which node (if any) contains
   this cell, and at which *logical* offset (0 = [mm_ref], 1 =
   [mm_next], then links and data) — uniform across stores.
   Padding words have no owner and are rejected. Used by invariant
   checkers. *)
let owner_of t addr =
  if addr < 0 || addr >= t.size then invalid_arg "Arena.owner_of"
  else if addr < t.nodes_base then
    if addr mod t.root_stride = 0 then `Root (addr / t.root_stride)
    else invalid_arg "Arena.owner_of: padding word"
  else begin
    let off = addr - t.nodes_base in
    let w = off mod t.node_stride in
    if w < Layout.node_size t.layout then
      `Node (1 + (off / t.node_stride), w)
    else invalid_arg "Arena.owner_of: padding word"
  end

(* Word operations: dispatched on the store ---------------------------

   The [Cells] arm uses the instrumented primitives so the scheduling
   crossing carries this cell's global address and access kind —
   scheduling behaviour is identical to the plain primitives (one
   crossing per operation), and with no validator installed the
   metadata costs one no-op call. [Raw] is one C stub call per access
   — a single [__atomic] instruction on the out-of-heap block. *)

let read t addr =
  match t.store with
  | Raw w -> Words.get w addr
  | Cells cells -> P.read_at ~addr:(t.base + addr) cells.(addr)

let write t addr v =
  match t.store with
  | Raw w -> Words.set w addr v
  | Cells cells -> P.write_at ~addr:(t.base + addr) cells.(addr) v

let cas t addr ~old ~nw =
  match t.store with
  | Raw w -> Words.cas w addr ~old ~nw
  | Cells cells -> P.cas_at ~addr:(t.base + addr) cells.(addr) ~old ~nw

let faa t addr delta =
  match t.store with
  | Raw w -> Words.faa w addr delta
  | Cells cells -> P.faa_at ~addr:(t.base + addr) cells.(addr) delta

let swap t addr v =
  match t.store with
  | Raw w -> Words.swap w addr v
  | Cells cells -> P.swap_at ~addr:(t.base + addr) cells.(addr) v

(* mm-field conveniences (all atomic word ops on the cells above). *)

let read_mm_ref t p = read t (mm_ref_addr t p)
let faa_mm_ref t p delta = ignore (faa t (mm_ref_addr t p) delta)
let cas_mm_ref t p ~old ~nw = cas t (mm_ref_addr t p) ~old ~nw
let read_mm_next t p = read t (mm_next_addr t p)
let write_mm_next t p v = write t (mm_next_addr t p) v

let read_link t p i = read t (link_addr t p i)
let write_link t p i v = write t (link_addr t p i) v
let read_data t p j = read t (data_addr t p j)
let write_data t p j v = write t (data_addr t p j) v

(* Fused reference-count fragments. The [Raw] arms collapse the
   sequence into one stub crossing; the [Cells] arms execute the same
   ops through the per-word entry points — the same scheduling points
   in the same order as ever. *)

(* ReleaseRef R1-R2: drop a reference; true iff the count hit zero and
   this caller claimed the node with the CAS(0 -> 1). *)
let release_mm_ref t p =
  match t.store with
  | Raw w -> Words.release_ref w (mm_ref_addr t p)
  | Cells _ ->
      faa_mm_ref t p (-2);
      read_mm_ref t p = 0 && cas_mm_ref t p ~old:0 ~nw:1

(* R3's per-link collect: read the link word and clear it. Only valid
   while the caller owns the node exclusively (post-R2). *)
let read_clear_link t p i =
  match t.store with
  | Raw w -> Words.read_clear w (link_addr t p i)
  | Cells _ ->
      let v = read_link t p i in
      write_link t p i 0;
      v

(* R1-R3 whole: release, and when this caller claimed the node,
   read-and-clear every link word, depositing the non-null values in
   slot order into [out] (length >= num_links). Returns the deposit
   count, or -1 when not claimed. One stub crossing under [Raw] — the
   node's links are physically contiguous from link 0. *)
let release_collect t p ~out =
  let nl = Layout.num_links t.layout in
  match t.store with
  | Raw w ->
      let nb = node_base t (Value.handle p) in
      Words.release_collect w ~ref_addr:nb ~links:(nb + Layout.header_size)
        ~nl ~out
  | Cells _ ->
      if release_mm_ref t p then begin
        let count = ref 0 in
        for i = 0 to nl - 1 do
          let v = read_link t p i in
          write_link t p i 0;
          if not (Value.is_null v) then begin
            out.(!count) <- v;
            incr count
          end
        done;
        !count
      end
      else -1

(* The raw word block ([Native] only) and the physical node
   geometry, for fusions that span the arena and a manager's hot
   vector (see {!Atomics.Words.take_fix}/[free_park]). Addressing
   uses the same physical [Value.addr] values as [read]/[write]
   above. *)
let raw t = match t.store with Raw w -> Some w | Cells _ -> None
let node_geom t = [| t.nodes_base; t.node_stride |]

(* Iteration and debug ---------------------------------------------- *)

let iter_nodes t f =
  for h = 1 to t.capacity do
    f (Value.of_handle h)
  done

(* Follow [mm_next] from [head] while [f] accepts each node (returns
   [true]); a walk longer than [capacity] nodes is a cycle, reported
   once through [violation]. *)
let iter_chain t ~head ~violation ~f =
  let rec walk p steps =
    if steps > t.capacity then violation ()
    else if (not (Value.is_null p)) && f p then
      walk (read_mm_next t p) (steps + 1)
  in
  walk head 0

let dump_node ppf t p =
  let h = Value.handle p in
  Fmt.pf ppf "node #%d: ref=%d next=%a" h (read_mm_ref t p) Value.pp_ptr
    (read_mm_next t p);
  for i = 0 to Layout.num_links t.layout - 1 do
    Fmt.pf ppf " l%d=%a" i Value.pp_word (read_link t p i)
  done;
  for j = 0 to Layout.num_data t.layout - 1 do
    Fmt.pf ppf " d%d=%d" j (read_data t p j)
  done
