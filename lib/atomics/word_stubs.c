/* Unboxed atomic word store for the Native backend.
 *
 * One page-aligned block of uintnat words, operated on with the GCC
 * __atomic builtins at SEQ_CST. The OCaml side sees a custom block
 * holding a *pointer* to the buffer — the custom block itself moves
 * with the GC, the buffer never does, so the word addresses handed to
 * the hardware are stable for the lifetime of the store. The
 * finalizer frees the buffer.
 *
 * Every word holds an OCaml immediate in untagged form (the wrapper
 * passes plain ints through Long_val/Val_long), so values here are
 * machine integers, never heap pointers — the GC never scans the
 * buffer. All entry points except futex-style waiting are [@@noalloc]
 * on the OCaml side: they must not allocate, raise, or enter a
 * blocking section, so bounds checks live in the OCaml wrapper. */

#include <stdlib.h>
#include <string.h>
#include <stdint.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>

typedef struct {
  uintnat *base;
  uintnat len; /* in words */
} wfrc_words;

#define Words_val(v) ((wfrc_words *)Data_custom_val(v))

static void wfrc_words_finalize(value v)
{
  wfrc_words *w = Words_val(v);
  if (w->base != NULL) {
    free(w->base);
    w->base = NULL;
  }
}

static struct custom_operations wfrc_words_ops = {
  "wfrc.words",
  wfrc_words_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

CAMLprim value caml_wfrc_words_make(value vlen)
{
  CAMLparam1(vlen);
  CAMLlocal1(res);
  uintnat len = (uintnat)Long_val(vlen);
  uintnat bytes = len * sizeof(uintnat);
  void *base = NULL;
  if (posix_memalign(&base, 4096, bytes ? bytes : sizeof(uintnat)) != 0)
    caml_raise_out_of_memory();
  memset(base, 0, bytes ? bytes : sizeof(uintnat));
  res = caml_alloc_custom(&wfrc_words_ops, sizeof(wfrc_words), 0, 1);
  Words_val(res)->base = (uintnat *)base;
  Words_val(res)->len = len;
  CAMLreturn(res);
}

CAMLprim value caml_wfrc_words_get(value vw, value vi)
{
  return Val_long(
      (intnat)__atomic_load_n(Words_val(vw)->base + Long_val(vi),
                              __ATOMIC_SEQ_CST));
}

CAMLprim value caml_wfrc_words_set(value vw, value vi, value vx)
{
  __atomic_store_n(Words_val(vw)->base + Long_val(vi),
                   (uintnat)Long_val(vx), __ATOMIC_SEQ_CST);
  return Val_unit;
}

CAMLprim value caml_wfrc_words_cas(value vw, value vi, value vold, value vnew)
{
  uintnat expected = (uintnat)Long_val(vold);
  int ok = __atomic_compare_exchange_n(
      Words_val(vw)->base + Long_val(vi), &expected, (uintnat)Long_val(vnew),
      0, __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
  return Val_bool(ok);
}

CAMLprim value caml_wfrc_words_faa(value vw, value vi, value vd)
{
  return Val_long((intnat)__atomic_fetch_add(
      Words_val(vw)->base + Long_val(vi), (uintnat)Long_val(vd),
      __ATOMIC_SEQ_CST));
}

CAMLprim value caml_wfrc_words_swap(value vw, value vi, value vx)
{
  return Val_long((intnat)__atomic_exchange_n(
      Words_val(vw)->base + Long_val(vi), (uintnat)Long_val(vx),
      __ATOMIC_SEQ_CST));
}

/* ---- Fused protocol fragments ------------------------------------
 *
 * Each of these performs a short fixed sequence of atomic operations
 * that the OCaml side would otherwise issue as separate stub calls.
 * The per-word operations and their order are those of the unfused
 * sequence (the Sim arms still execute them individually), so only
 * the number of OCaml-to-C crossings changes. One step is conditional
 * in both arms alike: DeRefLink's D2 stores annIndex[tid] only when it
 * differs from the chosen slot (deref_link below; the unfused
 * Ann.set_index makes the same test), so neither arm issues the
 * same-value store.
 *
 * The release stubs differ from their Sim arms in three places, each
 * dropping an operation the thread would otherwise issue back to back
 * with its own (release_core below; DESIGN.md section 6.0): R1 tests
 * the value its FAA returns instead of reloading mm_ref; R2 claims
 * with CAS(0 -> 3) when the own-cell park will be tried, instead of
 * CAS(0 -> 1) and a later FAA(+2); R3 stores 0 only into non-null
 * links. Every one is a legal schedule of the unfused sequence, and
 * the words each call leaves equal the Sim arm's. */

/* AllocNode line A4's collect: load the annAlloc word; if non-null,
 * take it with an atomic exchange. Returns the taken word or 0. */
CAMLprim value caml_wfrc_words_take(value vw, value vi)
{
  uintnat *p = Words_val(vw)->base + Long_val(vi);
  if (__atomic_load_n(p, __ATOMIC_SEQ_CST) == 0) return Val_long(0);
  return Val_long((intnat)__atomic_exchange_n(p, 0, __ATOMIC_SEQ_CST));
}

/* ReleaseRef line R3's per-link collect: load the link word, then
 * store 0. The node is exclusively owned here (R2 claimed it), so the
 * load/store pair needs no atomicity beyond the individual ops. */
CAMLprim value caml_wfrc_words_read_clear(value vw, value vi)
{
  uintnat *p = Words_val(vw)->base + Long_val(vi);
  uintnat v = __atomic_load_n(p, __ATOMIC_SEQ_CST);
  __atomic_store_n(p, 0, __ATOMIC_SEQ_CST);
  return Val_long((intnat)v);
}

/* ReleaseRef lines R1-R3 on one node, the core of both release stubs
 * below. R1 FAAs the node's mm_ref by -2 and goes on only if that FAA
 * took the count from 2 to 0: every transition to 0 is made, and so
 * seen, by exactly one FAA, so the reload the unfused sequence makes
 * only adds a racer. R2 claims the node with CAS(0 -> claim), where
 * claim is 3 when [cellp] is non-null and the cell it points at reads
 * empty (the claim and the own-cell park's +2 inflation in one CAS;
 * DESIGN.md section 6.0), and 1 otherwise. R3 then collects the
 * node's [nl] contiguous link words, depositing the non-null ones in
 * order into [vout] (an OCaml int array -- immediates need no write
 * barrier) and storing 0 only into those: a null link already reads
 * 0, and the node is exclusively owned, so no one sees the store it
 * skips. Returns the number deposited, with [*park] set when the
 * claim was 3, or -1 when this release did not claim the node. */
static intnat release_core(uintnat *refp, uintnat *links, intnat nl,
                           value vout, uintnat *cellp, int *park)
{
  uintnat expected = 0;
  intnat count = 0, i;
  if (__atomic_fetch_sub(refp, 2, __ATOMIC_SEQ_CST) != 2)        /* R1 */
    return -1;
  *park = cellp != NULL && __atomic_load_n(cellp, __ATOMIC_SEQ_CST) == 0;
  if (!__atomic_compare_exchange_n(refp, &expected, *park ? 3 : 1, /* R2 */
                                   0, __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST))
    return -1;
  for (i = 0; i < nl; i++) {                                     /* R3 */
    uintnat v = __atomic_load_n(links + i, __ATOMIC_SEQ_CST);
    if (v != 0) {
      __atomic_store_n(links + i, 0, __ATOMIC_SEQ_CST);
      Field(vout, count++) = Val_long((intnat)v);
    }
  }
  return count;
}

/* ReleaseRef lines R1-R3 whole on the node whose mm_ref is word vref
 * and whose links are the [nl] words from vlinks: release_core with
 * no park, so a claim is CAS(0 -> 1). Returns the number of links
 * deposited into vout, or -1 when the node was not claimed. */
CAMLprim value caml_wfrc_words_release_collect(value vw, value vref,
                                               value vlinks, value vnl,
                                               value vout)
{
  uintnat *base = Words_val(vw)->base;
  int park;
  return Val_long(release_core(base + Long_val(vref), base + Long_val(vlinks),
                               Long_val(vnl), vout, NULL, &park));
}

/* ReleaseRef R1-R3 and the own-cell park of R4's FreeNode whole, on
 * hot block vhw and arena block vaw. vnode is the (unmarked) node;
 * vctx is the caller's per-thread int array [| cell; nodes_base;
 * node_stride; links_off; nl |]: the hot-block word of the caller's
 * annAlloc cell, or -1 when the hand-off is off, then the arena's node
 * geometry (mm_ref is word 0 of a node block, the links start at word
 * links_off) and the link count. release_core claims the node with
 * the +2 inflation when the cell reads empty; the park is then a
 * CAS(0 -> node) of the cell, and when a peer's A12 donation filled
 * the cell first, an FAA(-2) takes the inflation back. Peers can only
 * fill the cell, never empty it, while its owner is in here, so this
 * decides as the unfused park would. Returns -1 when the node was not
 * claimed, else twice the number of links deposited into vout, plus 1
 * when the node was parked. */
CAMLprim value caml_wfrc_release_park(value vhw, value vaw, value vnode,
                                      value vctx, value vout)
{
  intnat cell = Long_val(Field(vctx, 0));
  uintnat node = (uintnat)Long_val(vnode);
  uintnat *refp = Words_val(vaw)->base + Long_val(Field(vctx, 1))
                  + ((node >> 1) - 1) * (uintnat)Long_val(Field(vctx, 2));
  uintnat *cellp = cell < 0 ? NULL : Words_val(vhw)->base + cell;
  uintnat expected = 0;
  int park;
  intnat count = release_core(refp, refp + Long_val(Field(vctx, 3)),
                              Long_val(Field(vctx, 4)), vout, cellp, &park);
  if (count < 0) return Val_long(-1);
  if (!park) return Val_long(2 * count);
  if (__atomic_compare_exchange_n(cellp, &expected, node, 0,   /* park */
                                  __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST))
    return Val_long(2 * count + 1);
  (void)__atomic_fetch_sub(refp, 2, __ATOMIC_SEQ_CST);
  return Val_long(2 * count);
}

/* AllocNode line A4 whole: collect the annAlloc word as in take and,
 * if a node was taken, apply FixRef(node, -1) to its mm_ref in the
 * arena block. geom = [| nodes_base; node_stride |] (the arena's
 * physical node geometry; mm_ref is word 0 of a node block). */
CAMLprim value caml_wfrc_take_fix(value vhw, value vslot, value vaw,
                                  value vgeom)
{
  uintnat *annp = Words_val(vhw)->base + Long_val(vslot);
  wfrc_words *aw = Words_val(vaw);
  uintnat node, ref;
  if (__atomic_load_n(annp, __ATOMIC_SEQ_CST) == 0) return Val_long(0);
  node = __atomic_exchange_n(annp, 0, __ATOMIC_SEQ_CST);
  if (node == 0) return Val_long(0);
  ref = (uintnat)Long_val(Field(vgeom, 0))
        + (((node >> 1) - 1) * (uintnat)Long_val(Field(vgeom, 1)));
  if (ref < aw->len)
    (void)__atomic_fetch_sub(aw->base + ref, 1, __ATOMIC_SEQ_CST);
  return Val_long((intnat)node);
}

/* DeRefLink lines D1-D6 whole, on announcement block vann (the
 * caller's row) and arena block varena. vctx is the caller's
 * per-thread int array [| node; slot; idx; busy; ra; stride; n;
 * nodes_base; node_stride |]: words 0-1 are outputs, the rest the
 * row geometry (word offsets into vann: the annIndex word, busy and
 * annReadAddr slot 0, the slot stride, the row length) and the arena's
 * node geometry as in take_fix.
 *   D1  scan the busy row for the first zero;
 *   D2  store the slot into annIndex only if the word differs (the
 *       caller is its only writer, so the load reads its own last
 *       store);
 *   D3  announce venc (the link's encoding) in the slot;
 *   D4  read the link word vlink of the arena;
 *   D5  FAA the target's mm_ref by +2 unless the target is null (a ref
 *       offset outside the block skips it defensively, as in take_fix);
 *   D6  retract the slot with a swap.
 * Returns n1, the swapped-out word; stores the D4 node and the slot
 * in vctx (immediates — no write barrier). When D1 finds no zero busy
 * count, nothing is written but slot -1 and 0 is returned. */
CAMLprim value caml_wfrc_deref_link(value vann, value varena, value vlink,
                                    value venc, value vctx)
{
  uintnat *idxp = Words_val(vann)->base + Long_val(Field(vctx, 2));
  uintnat *busy = Words_val(vann)->base + Long_val(Field(vctx, 3));
  uintnat *ra = Words_val(vann)->base + Long_val(Field(vctx, 4));
  intnat stride = Long_val(Field(vctx, 5)), n = Long_val(Field(vctx, 6));
  wfrc_words *aw = Words_val(varena);
  uintnat node, ref, n1;
  intnat slot;
  for (slot = 0; slot < n; slot++)                                /* D1 */
    if (__atomic_load_n(busy + slot * stride, __ATOMIC_SEQ_CST) == 0) break;
  if (slot == n) {
    Field(vctx, 1) = Val_long(-1);
    return Val_long(0);
  }
  if (__atomic_load_n(idxp, __ATOMIC_SEQ_CST) != (uintnat)slot)   /* D2 */
    __atomic_store_n(idxp, (uintnat)slot, __ATOMIC_SEQ_CST);
  __atomic_store_n(ra + slot * stride, (uintnat)Long_val(venc),   /* D3 */
                   __ATOMIC_SEQ_CST);
  node = __atomic_load_n(aw->base + Long_val(vlink), __ATOMIC_SEQ_CST); /* D4 */
  if (node != 0) {                                                /* D5 */
    ref = (uintnat)Long_val(Field(vctx, 7))
          + (((node >> 1) - 1) * (uintnat)Long_val(Field(vctx, 8)));
    if (ref < aw->len)
      (void)__atomic_fetch_add(aw->base + ref, 2, __ATOMIC_SEQ_CST);
  }
  n1 = __atomic_exchange_n(ra + slot * stride, 0, __ATOMIC_SEQ_CST); /* D6 */
  Field(vctx, 0) = Val_long((intnat)node);
  Field(vctx, 1) = Val_long(slot);
  return Val_long((intnat)n1);
}

/* Batched announcement scan (the H2/H3 read pass of CleanUp/HelpDeRef
 * done in one call). geom = [| idx_base; idx_stride; ra_base;
 * row_stride; slot_stride; n |], all in words. For each row id in
 * [from, n): load index[id], then row id's announced word at slot
 * index[id]; return the first id whose announced word equals target,
 * or -1. A corrupt slot index (outside [0, n)) skips the row; a word
 * offset outside the buffer stops the scan — both are defensive, the
 * wrapper always passes a well-formed geometry. */
CAMLprim value caml_wfrc_ann_scan(value vw, value vgeom, value vfrom,
                                  value vtarget)
{
  wfrc_words *w = Words_val(vw);
  intnat idx_base = Long_val(Field(vgeom, 0));
  intnat idx_stride = Long_val(Field(vgeom, 1));
  intnat ra_base = Long_val(Field(vgeom, 2));
  intnat row_stride = Long_val(Field(vgeom, 3));
  intnat slot_stride = Long_val(Field(vgeom, 4));
  intnat n = Long_val(Field(vgeom, 5));
  uintnat target = (uintnat)Long_val(vtarget);
  intnat id;
  for (id = Long_val(vfrom); id < n; id++) {
    uintnat iw = (uintnat)(idx_base + id * idx_stride);
    intnat slot;
    uintnat aw;
    if (iw >= w->len) break;
    slot = (intnat)__atomic_load_n(w->base + iw, __ATOMIC_SEQ_CST);
    if (slot < 0 || slot >= n) continue;
    aw = (uintnat)(ra_base + id * row_stride + slot * slot_stride);
    if (aw >= w->len) break;
    if (__atomic_load_n(w->base + aw, __ATOMIC_SEQ_CST) == target)
      return Val_long(id);
  }
  return Val_long(-1);
}
