(* A vector of contention-padded hot words, stored per backend.

   The managers keep a handful of global words every thread hammers —
   free-list heads, [currentFreeList], [helpCurrent], the [annAlloc]
   slots, the lock word. Under [Sim] these are plain {!Primitives}
   cells, so every access still crosses one scheduling point. Under
   [Native] the whole vector is one {!Words} block with each slot on
   its own cache-line pair — no boxes, no GC traffic, stable
   addresses.

   Indexing is by slot: slot [i] lives at word [i * cache_line_words]
   in the Native block. *)

module P = Primitives

type t = Cells of P.cell array | Raw of Words.t

let stride = Backend.cache_line_words

let create ~backend n ~init =
  if n < 1 then invalid_arg "Hot.create";
  match backend with
  | Backend.Sim -> Cells (Array.init n (fun i -> P.make (init i)))
  | Backend.Native ->
      let w = Words.make (n * stride) in
      for i = 0 to n - 1 do
        Words.set w (i * stride) (init i)
      done;
      Raw w

let length t =
  match t with
  | Cells a -> Array.length a
  | Raw w -> Words.length w / stride

let[@inline] read t i =
  match t with
  | Cells a -> P.read a.(i)
  | Raw w -> Words.get w (i * stride)

let[@inline] write t i v =
  match t with
  | Cells a -> P.write a.(i) v
  | Raw w -> Words.set w (i * stride) v

let[@inline] cas t i ~old ~nw =
  match t with
  | Cells a -> P.cas a.(i) ~old ~nw
  | Raw w -> Words.cas w (i * stride) ~old ~nw

let[@inline] faa t i d =
  match t with
  | Cells a -> P.faa a.(i) d
  | Raw w -> Words.faa w (i * stride) d

let[@inline] swap t i v =
  match t with
  | Cells a -> P.swap a.(i) v
  | Raw w -> Words.swap w (i * stride) v

(* Fused fragments: one stub crossing under [Raw]; the [Cells] arms
   execute the same per-word ops individually — the same scheduling
   points in the same order as the callers always issued. *)

(* A4's collect: read, and take with an exchange only if non-zero. *)
let[@inline] take t i =
  match t with
  | Cells a -> if P.read a.(i) = 0 then 0 else P.swap a.(i) 0
  | Raw w -> Words.take w (i * stride)

(* Raw access for cross-store fusions (A4's take-and-fix and
   FreeNode's own-cell park span an arena and a hot vector): the
   backing block and the physical word of a slot. *)
let raw t = match t with Raw w -> Some w | Cells _ -> None
let word_of_slot i = i * stride
