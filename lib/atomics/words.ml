(* Unboxed atomic word store (Native backend only).

   A page-aligned block of [uintnat] words outside the OCaml heap,
   driven through C stubs that compile to single [__atomic] SEQ_CST
   instructions — no per-word [Atomic.t] box, no GC card marking, and
   word addresses that never move. The buffer holds untagged machine
   integers only (the managers' word encodings are immediates by
   construction), so the GC never scans it.

   The stubs are unchecked by design ([@@noalloc] externals cannot
   raise), so this wrapper owns the bounds checks. Hot-path accessors
   use [unsafe_*] after a single check, mirroring how [Array] code is
   written. *)

type raw

external raw_make : int -> raw = "caml_wfrc_words_make"

external unsafe_get : raw -> int -> int = "caml_wfrc_words_get" [@@noalloc]

external unsafe_set : raw -> int -> int -> unit = "caml_wfrc_words_set"
[@@noalloc]

external unsafe_cas : raw -> int -> int -> int -> bool = "caml_wfrc_words_cas"
[@@noalloc]

external unsafe_faa : raw -> int -> int -> int = "caml_wfrc_words_faa"
[@@noalloc]

external unsafe_swap : raw -> int -> int -> int = "caml_wfrc_words_swap"
[@@noalloc]

external unsafe_ann_scan : raw -> int array -> int -> int -> int
  = "caml_wfrc_ann_scan"
[@@noalloc]

external unsafe_take : raw -> int -> int = "caml_wfrc_words_take" [@@noalloc]

external unsafe_read_clear : raw -> int -> int = "caml_wfrc_words_read_clear"
[@@noalloc]

external unsafe_release_collect : raw -> int -> int -> int -> int array -> int
  = "caml_wfrc_words_release_collect"
[@@noalloc]

external unsafe_take_fix : raw -> int -> raw -> int array -> int
  = "caml_wfrc_take_fix"
[@@noalloc]

external unsafe_free_park : raw -> int -> raw -> int -> int -> bool
  = "caml_wfrc_free_park"
[@@noalloc]

external unsafe_deref_link : raw -> raw -> int -> int -> int array -> int
  = "caml_wfrc_deref_link"
[@@noalloc]

type t = { raw : raw; len : int }

let make len =
  if len < 1 then invalid_arg "Words.make";
  { raw = raw_make len; len }

let length t = t.len

let[@inline] check t i =
  if i < 0 || i >= t.len then invalid_arg "Words: index out of range"

let[@inline] get t i =
  check t i;
  unsafe_get t.raw i

let[@inline] set t i v =
  check t i;
  unsafe_set t.raw i v

let[@inline] cas t i ~old ~nw =
  check t i;
  unsafe_cas t.raw i old nw

let[@inline] faa t i d =
  check t i;
  unsafe_faa t.raw i d

let[@inline] swap t i v =
  check t i;
  unsafe_swap t.raw i v

(* Fused protocol fragments: one stub call for a short fixed sequence
   of atomic ops (see word_stubs.c). Identical per-word behaviour to
   issuing the ops through [faa]/[get]/[cas]/... individually. *)

let[@inline] take t i =
  check t i;
  unsafe_take t.raw i

let[@inline] read_clear t i =
  check t i;
  unsafe_read_clear t.raw i

let[@inline] release_collect t ~ref_addr ~links ~nl ~out =
  check t ref_addr;
  if nl < 0 || Array.length out < nl then invalid_arg "Words.release_collect";
  if nl > 0 then begin
    check t links;
    check t (links + nl - 1)
  end;
  unsafe_release_collect t.raw ref_addr links nl out

(* [geom] for [take_fix] is validated once at creation by the manager
   (Gc) — the stub also guards defensively. *)
let[@inline] take_fix t slot ~arena ~geom =
  check t slot;
  unsafe_take_fix t.raw slot arena.raw geom

let[@inline] free_park t slot ~arena ~ref_addr ~node =
  check t slot;
  check arena ref_addr;
  unsafe_free_park t.raw slot arena.raw ref_addr node

(* [ctx] layout: [| node; slot; idx; busy; ra; stride; n; nodes_base;
   node_stride |], then any padding. The link word and the whole
   announcement row are checked on every call; the stub guards the
   computed [mm_ref] offset itself, as [take_fix] does. *)
let[@inline] deref_link t ~arena ~link ~enc ~ctx =
  check arena link;
  if Array.length ctx < 9 then invalid_arg "Words.deref_link: ctx";
  let stride = ctx.(5) and n = ctx.(6) in
  if n < 1 || stride < 1 then invalid_arg "Words.deref_link: row";
  check t ctx.(2);
  check t ctx.(3);
  check t (ctx.(3) + ((n - 1) * stride));
  check t ctx.(4);
  check t (ctx.(4) + ((n - 1) * stride));
  unsafe_deref_link t.raw arena.raw link enc ctx

(* [geom] layout: [| idx_base; idx_stride; ra_base; row_stride;
   slot_stride; n |]. Validated once here so the stub's own guards are
   pure defence in depth. *)
let ann_scan t ~geom ~from target =
  if Array.length geom <> 6 then invalid_arg "Words.ann_scan: geom";
  let n = geom.(5) in
  if from < 0 || from > n then invalid_arg "Words.ann_scan: from";
  unsafe_ann_scan t.raw geom from target
