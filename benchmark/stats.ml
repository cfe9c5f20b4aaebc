(* Order statistics. Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive"
   method), so spreads computed here and by other tools agree. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* (q1, q3) *)
let quartiles values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* The 0-based nearest rank of quantile [q] among [n] samples. *)
let rank ~n q =
  let r = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  max 0 (min (n - 1) r)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
