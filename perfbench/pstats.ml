(* Order statistics and ratios behind every number the benchmark prints.
   Latency percentiles are exact (nearest rank over the raw samples), so a
   fleet tail is a sample somebody actually saw, never a bucket bound. *)

let check_p p =
  if Float.is_nan p || p < 0. || p > 100. then
    invalid_arg (Printf.sprintf "Pstats: percentile %g outside [0,100]" p)

(* 1-based nearest rank of the p-th percentile among n samples:
   ceil(p*n/100), at least 1.  The product is taken before the division so
   integral p and n give an exact rank. *)
let rank ~n p =
  check_p p;
  if n <= 0 then invalid_arg "Pstats.rank: no samples";
  max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.)))

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* The smallest sample with at least p% of all samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  let r = rank ~n p in
  (sorted a).(r - 1)

(* Samples ranked above the p-th percentile: how many observations the
   tail estimate rests on. *)
let beyond ~n p = n - rank ~n p

(* Median of per-pass measurements: the middle value, or the mean of the
   two middle values for an even count. *)
let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* [part] over [whole]; 0 when nothing happened, so an idle layer reads
   as 0 rather than NaN. *)
let ratio part whole = if whole = 0. then 0. else part /. whole

(* Share of simulated cycles spent in the VMM. *)
let vmm_share ~guest ~vmm = ratio (Int64.to_float vmm) (Int64.to_float (Int64.add guest vmm))
