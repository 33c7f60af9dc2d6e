(* Unit tests for velum_util: RNG, statistics, bit operations, ring
   buffers, FNV hashing, byte-range equality and table formatting. *)

open Velum_util

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let check64 = Alcotest.(check int64)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---------------- Rng ---------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check64 "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.next a = Rng.next b then incr same
  done;
  checkb "different seeds diverge" true (!same < 5)

let test_rng_copy () =
  let a = Rng.create ~seed:7L in
  ignore (Rng.next a);
  let b = Rng.copy a in
  check64 "copy continues identically" (Rng.next a) (Rng.next b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7L in
  let b = Rng.split a in
  let xa = Rng.next a and xb = Rng.next b in
  checkb "split streams differ" true (xa <> xb)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create ~seed:9L in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:5L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_geometric () =
  let r = Rng.create ~seed:11L in
  checki "p=1 is always 0" 0 (Rng.geometric r ~p:1.0);
  let total = ref 0 in
  for _ = 1 to 2000 do
    total := !total + Rng.geometric r ~p:0.5
  done;
  (* mean of Geom(0.5) failure count = 1 *)
  let mean = float_of_int !total /. 2000.0 in
  checkb "mean near 1" true (mean > 0.8 && mean < 1.2)

let rng_prop_int_uniformish =
  QCheck2.Test.make ~name:"rng int covers all residues"
    QCheck2.Gen.(int_range 2 20)
    (fun bound ->
      let r = Rng.create ~seed:(Int64.of_int bound) in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Rng.int r bound) <- true
      done;
      Array.for_all Fun.id seen)

(* ---------------- Stats ---------------- *)

let test_stats_mean_stddev () =
  checkf "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  checkf "mean empty" 0.0 (Stats.mean [||]);
  checkf "stddev constant" 0.0 (Stats.stddev [| 4.0; 4.0; 4.0 |]);
  checkf "stddev alternating" 1.0 (Stats.stddev [| 1.0; 3.0; 1.0; 3.0 |])

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  checkf "p0" 10.0 (Stats.percentile xs 0.0);
  checkf "p100" 40.0 (Stats.percentile xs 100.0);
  checkf "p50 interpolates" 25.0 (Stats.percentile xs 50.0);
  checkf "median" 25.0 (Stats.median xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0))

let test_stats_jain () =
  checkf "even allocation" 1.0 (Stats.jain_fairness [| 5.0; 5.0; 5.0 |]);
  checkf "maximally unfair" (1.0 /. 4.0) (Stats.jain_fairness [| 1.0; 0.0; 0.0; 0.0 |]);
  checkf "empty" 1.0 (Stats.jain_fairness [||])

let test_stats_geomean () =
  checkf "geomean" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive sample") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

let test_stats_running () =
  let r = Stats.running_create () in
  List.iter (Stats.running_add r) [ 1.0; 2.0; 3.0; 4.0 ];
  checki "count" 4 (Stats.running_count r);
  checkf "mean" 2.5 (Stats.running_mean r);
  checkf "min" 1.0 (Stats.running_min r);
  checkf "max" 4.0 (Stats.running_max r);
  checkb "stddev matches batch" true
    (abs_float (Stats.running_stddev r -. Stats.stddev [| 1.0; 2.0; 3.0; 4.0 |]) < 1e-9)

let test_stats_population_stddev () =
  (* documented convention: population (/ n), not sample (/ n-1) *)
  checkf "two-point population" 1.0 (Stats.stddev [| 1.0; 3.0 |]);
  let r = Stats.running_create () in
  Stats.running_add r 1.0;
  Stats.running_add r 3.0;
  checkf "running matches" 1.0 (Stats.running_stddev r)

let test_stats_percentile_nan () =
  Alcotest.check_raises "NaN sample" (Invalid_argument "Stats.percentile: NaN sample")
    (fun () -> ignore (Stats.percentile [| 1.0; Float.nan; 3.0 |] 50.0));
  (* Float.compare-based sort: negative values order correctly *)
  checkf "negative samples sort" (-3.0) (Stats.percentile [| -1.0; -3.0; -2.0 |] 0.0)

let stats_prop_percentile_monotone =
  QCheck2.Test.make ~name:"percentile is monotone in p"
    QCheck2.Gen.(list_size (int_range 1 30) (float_bound_inclusive 1000.0))
    (fun xs ->
      let a = Array.of_list xs in
      let p25 = Stats.percentile a 25.0
      and p50 = Stats.percentile a 50.0
      and p75 = Stats.percentile a 75.0 in
      p25 <= p50 && p50 <= p75)

(* ---------------- Bitops ---------------- *)

let test_bitops_basics () =
  check64 "mask 0" 0L (Bitops.mask 0);
  check64 "mask 64" (-1L) (Bitops.mask 64);
  check64 "extract" 0xCL (Bitops.extract 0xAB_CDL ~lo:4 ~width:4);
  check64 "insert" 0xA5_CDL (Bitops.insert 0xAB_CDL ~lo:8 ~width:4 0x5L);
  checkb "test_bit" true (Bitops.test_bit 0x80L 7);
  check64 "set_bit on" 0x81L (Bitops.set_bit 0x80L 0 true);
  check64 "set_bit off" 0x00L (Bitops.set_bit 0x80L 7 false);
  check64 "sign extend neg" (-1L) (Bitops.sign_extend 0xFFL ~width:8);
  check64 "sign extend pos" 0x7FL (Bitops.sign_extend 0x7FL ~width:8);
  check64 "align down" 0x1000L (Bitops.align_down 0x1FFFL 4096);
  check64 "align up" 0x2000L (Bitops.align_up 0x1001L 4096);
  checkb "is_aligned" true (Bitops.is_aligned 0x3000L 4096);
  checkb "not aligned" false (Bitops.is_aligned 0x3008L 4096);
  checki "popcount" 3 (Bitops.popcount 0b10101L)

let bitops_prop_roundtrip =
  QCheck2.Test.make ~name:"insert then extract round-trips"
    QCheck2.Gen.(triple (int_range 0 56) (int_range 1 8) (pair ui64 ui64))
    (fun (lo, width, (v, field)) ->
      let inserted = Bitops.insert v ~lo ~width field in
      Bitops.extract inserted ~lo ~width = Int64.logand field (Bitops.mask width))

let bitops_prop_sign_extend_idempotent =
  QCheck2.Test.make ~name:"sign_extend is idempotent"
    QCheck2.Gen.(pair (int_range 1 64) ui64)
    (fun (width, v) ->
      let once = Bitops.sign_extend v ~width in
      Bitops.sign_extend once ~width = once)

(* ---------------- Ring ---------------- *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:3 in
  checkb "empty" true (Ring.is_empty r);
  checkb "push" true (Ring.push r 1);
  checkb "push" true (Ring.push r 2);
  checkb "push" true (Ring.push r 3);
  checkb "full" true (Ring.is_full r);
  checkb "push full fails" false (Ring.push r 4);
  Alcotest.(check (option int)) "peek" (Some 1) (Ring.peek r);
  Alcotest.(check (option int)) "pop order" (Some 1) (Ring.pop r);
  Alcotest.(check (option int)) "pop order" (Some 2) (Ring.pop r);
  checkb "push after pop" true (Ring.push r 5);
  Alcotest.(check (list int)) "to_list" [ 3; 5 ] (Ring.to_list r)

let test_ring_force () =
  let r = Ring.create ~capacity:2 in
  Ring.push_force r 1;
  Ring.push_force r 2;
  Ring.push_force r 3;
  Alcotest.(check (list int)) "oldest evicted" [ 2; 3 ] (Ring.to_list r)

let test_ring_clear () =
  let r = Ring.create ~capacity:4 in
  ignore (Ring.push r 1);
  Ring.clear r;
  checkb "cleared" true (Ring.is_empty r);
  checki "length" 0 (Ring.length r)

let test_ring_wraparound () =
  (* drive head/tail through several full revolutions of the backing
     array and check FIFO order survives each wrap *)
  let r = Ring.create ~capacity:4 in
  let next_in = ref 0 and next_out = ref 0 in
  for _ = 1 to 10 do
    while not (Ring.is_full r) do
      checkb "push" true (Ring.push r !next_in);
      incr next_in
    done;
    checki "full length" 4 (Ring.length r);
    Alcotest.(check (list int)) "to_list in order"
      [ !next_out; !next_out + 1; !next_out + 2; !next_out + 3 ]
      (Ring.to_list r);
    for _ = 1 to 3 do
      Alcotest.(check (option int)) "pop order" (Some !next_out) (Ring.pop r);
      incr next_out
    done
  done

let test_ring_force_across_wrap () =
  let r = Ring.create ~capacity:3 in
  for i = 1 to 10 do
    Ring.push_force r i
  done;
  Alcotest.(check (list int)) "last capacity survive" [ 8; 9; 10 ] (Ring.to_list r);
  checki "length stays capped" 3 (Ring.length r);
  Ring.clear r;
  checkb "clear after wrap" true (Ring.is_empty r);
  Ring.push_force r 99;
  Alcotest.(check (list int)) "usable after clear" [ 99 ] (Ring.to_list r)

let ring_prop_model =
  QCheck2.Test.make ~name:"ring matches queue model"
    QCheck2.Gen.(list (pair bool small_int))
    (fun ops ->
      let r = Ring.create ~capacity:8 in
      let q = Queue.create () in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            let ok = Ring.push r v in
            if Queue.length q < 8 then begin
              Queue.push v q;
              ok
            end
            else not ok
          end
          else
            match (Ring.pop r, Queue.take_opt q) with
            | Some a, Some b -> a = b
            | None, None -> true
            | _ -> false)
        ops)

(* ---------------- Histogram ---------------- *)

let test_hist_bucket_of () =
  checki "0" 0 (Histogram.bucket_of 0);
  checki "1" 0 (Histogram.bucket_of 1);
  checki "2" 1 (Histogram.bucket_of 2);
  checki "3" 1 (Histogram.bucket_of 3);
  checki "4" 2 (Histogram.bucket_of 4);
  checki "7" 2 (Histogram.bucket_of 7);
  checki "8" 3 (Histogram.bucket_of 8);
  checki "1023" 9 (Histogram.bucket_of 1023);
  checki "1024" 10 (Histogram.bucket_of 1024);
  checki "negative clamps" 0 (Histogram.bucket_of (-5));
  checki "max_int fits" 61 (Histogram.bucket_of max_int)

let test_hist_summary () =
  let h = Histogram.create () in
  checki "empty count" 0 (Histogram.count h);
  checkf "empty percentile" 0.0 (Histogram.percentile h 50.0);
  List.iter (Histogram.add h) [ 5; 5; 5; 5 ];
  checki "count" 4 (Histogram.count h);
  check64 "sum" 20L (Histogram.sum h);
  checki "min" 5 (Histogram.min_value h);
  checki "max" 5 (Histogram.max_value h);
  checkf "mean" 5.0 (Histogram.mean h);
  (* single distinct value: percentiles are exact at every p *)
  checkf "p50 exact" 5.0 (Histogram.percentile h 50.0);
  checkf "p99 exact" 5.0 (Histogram.percentile h 99.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Histogram.percentile: p out of range") (fun () ->
      ignore (Histogram.percentile h 101.0))

let test_hist_buckets_and_reset () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3; 100; -7 ];
  Alcotest.(check (list (pair int int)))
    "nonzero buckets ascending"
    [ (0, 2); (2, 2); (64, 1) ]
    (Histogram.buckets h);
  checki "negative clamped to 0" 0 (Histogram.min_value h);
  Histogram.reset h;
  checki "reset count" 0 (Histogram.count h);
  check64 "reset sum" 0L (Histogram.sum h);
  Alcotest.(check (list (pair int int))) "reset buckets" [] (Histogram.buckets h)

let hist_prop_percentile_bounds =
  QCheck2.Test.make ~name:"percentiles stay within observed min/max"
    QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 100_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let lo = float_of_int (Histogram.min_value h)
      and hi = float_of_int (Histogram.max_value h) in
      List.for_all
        (fun p ->
          let v = Histogram.percentile h p in
          v >= lo && v <= hi)
        [ 0.0; 25.0; 50.0; 95.0; 99.0; 100.0 ])

let hist_prop_percentile_monotone =
  QCheck2.Test.make ~name:"histogram percentile is monotone in p"
    QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 100_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let ps = [ 0.0; 10.0; 50.0; 90.0; 95.0; 99.0; 100.0 ] in
      let vs = List.map (Histogram.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vs)

(* ---------------- Fnv ---------------- *)

let test_fnv_known () =
  (* standard FNV-1a test vectors *)
  check64 "empty" 0xCBF29CE484222325L (Fnv.hash_string "");
  check64 "a" 0xAF63DC4C8601EC8CL (Fnv.hash_string "a");
  check64 "foobar" 0x85944171F73967E8L (Fnv.hash_string "foobar")

let test_fnv_bytes_range () =
  let b = Bytes.of_string "xxfoobarxx" in
  check64 "range matches" (Fnv.hash_string "foobar") (Fnv.hash_bytes ~pos:2 ~len:6 b);
  Alcotest.check_raises "oob" (Invalid_argument "Fnv.hash_bytes: range out of bounds")
    (fun () -> ignore (Fnv.hash_bytes ~pos:8 ~len:10 b))

let test_fnv_combine_order () =
  let a = Fnv.combine (Fnv.combine Fnv.offset_basis 1L) 2L in
  let b = Fnv.combine (Fnv.combine Fnv.offset_basis 2L) 1L in
  checkb "order matters" true (a <> b)

let fnv_prop_string_bytes_agree =
  QCheck2.Test.make ~name:"hash_string = hash_bytes" QCheck2.Gen.string (fun s ->
      Fnv.hash_string s = Fnv.hash_bytes (Bytes.of_string s))

(* ---------------- Bytes_eq ---------------- *)

let slice_equal a apos b bpos len = Bytes.equal (Bytes.sub a apos len) (Bytes.sub b bpos len)

let test_bytes_eq_edges () =
  let a = Bytes.of_string "0123456789abcdefXYZ" in
  (* 19 bytes: two words plus a 3-byte tail *)
  let b = Bytes.copy a in
  checkb "equal, length not a multiple of 8" true (Bytes_eq.equal a 0 b 0 19);
  Bytes.set b 18 'z';
  checkb "difference only in the last byte" false (Bytes_eq.equal a 0 b 0 19);
  checkb "the prefix before it still equal" true (Bytes_eq.equal a 0 b 0 18);
  Bytes.set b 18 'Z';
  Bytes.set b 7 '!';
  checkb "difference in the last byte of a word" false (Bytes_eq.equal a 0 b 0 19);
  checkb "unaligned ranges" true (Bytes_eq.equal a 9 b 9 10);
  checkb "zero length" true (Bytes_eq.equal a 19 Bytes.empty 0 0);
  let z = Bytes.make 21 '\000' in
  checkb "all zero" true (Bytes_eq.is_zero z 0 21);
  Bytes.set z 20 '\001';
  checkb "non-zero last byte" false (Bytes_eq.is_zero z 0 21);
  checkb "zero-length range is zero" true (Bytes_eq.is_zero z 21 0);
  let oob f = Alcotest.check_raises "out of range" (Invalid_argument f) in
  let eq_msg = "Bytes_eq.equal: range out of bounds" in
  let zero_msg = "Bytes_eq.is_zero: range out of bounds" in
  oob eq_msg (fun () -> ignore (Bytes_eq.equal a 12 b 0 8));
  oob eq_msg (fun () -> ignore (Bytes_eq.equal a 0 b 12 8));
  oob eq_msg (fun () -> ignore (Bytes_eq.equal a (-1) b 0 1));
  oob eq_msg (fun () -> ignore (Bytes_eq.equal a 0 b 0 (-1)));
  oob zero_msg (fun () -> ignore (Bytes_eq.is_zero z 20 2));
  oob zero_msg (fun () -> ignore (Bytes_eq.is_zero z (-1) 1))

(* Against the obvious model: random equal-ish buffers (one byte of [b]
   possibly flipped) and random in-range windows. *)
let bytes_eq_prop_model =
  QCheck2.Test.make ~count:500 ~name:"equal / is_zero agree with Bytes.sub + Bytes.equal"
    QCheck2.Gen.(
      quad (string_size ~gen:(oneofl [ '\000'; 'a'; 'b' ]) (int_range 0 80)) nat nat
        (opt nat))
    (fun (s, p1, p2, flip) ->
      let a = Bytes.of_string s in
      let n = Bytes.length a in
      let b = Bytes.copy a in
      (match flip with
      | Some i when n > 0 -> Bytes.set b (i mod n) 'c'
      | _ -> ());
      let apos = if n = 0 then 0 else p1 mod (n + 1) in
      let bpos = if n = 0 then 0 else p2 mod (n + 1) in
      let len = n - max apos bpos in
      Bytes_eq.equal a apos b bpos len = slice_equal a apos b bpos len
      && Bytes_eq.is_zero a apos len
         = Bytes.equal (Bytes.sub a apos len) (Bytes.make len '\000'))

(* ---------------- Tablefmt ---------------- *)

let test_tablefmt_render () =
  let t = Tablefmt.create ~title:"T" [ ("name", Tablefmt.Left); ("n", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_separator t;
  Tablefmt.add_row t [ "b"; "22" ];
  let s = Tablefmt.render t in
  checkb "has title" true (String.length s > 0 && s.[0] = 'T');
  checkb "contains alpha" true (contains s "alpha");
  checkb "right aligned" true (contains s "|  1 |" || contains s "| 1 |")

let test_tablefmt_arity () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: arity mismatch")
    (fun () -> Tablefmt.add_row t [ "x"; "y" ])

let test_tablefmt_cells () =
  Alcotest.(check string) "thousands" "1,234,567" (Tablefmt.cell_i 1234567);
  Alcotest.(check string) "negative" "-1,000" (Tablefmt.cell_i (-1000));
  Alcotest.(check string) "small" "42" (Tablefmt.cell_i 42);
  Alcotest.(check string) "float" "3.14" (Tablefmt.cell_f 3.14159);
  Alcotest.(check string) "decimals" "3.1416" (Tablefmt.cell_f ~decimals:4 3.14159)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
        ]
        @ qsuite [ rng_prop_int_uniformish ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "jain" `Quick test_stats_jain;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "running" `Quick test_stats_running;
          Alcotest.test_case "population stddev" `Quick test_stats_population_stddev;
          Alcotest.test_case "percentile NaN" `Quick test_stats_percentile_nan;
        ]
        @ qsuite [ stats_prop_percentile_monotone ] );
      ( "bitops",
        [ Alcotest.test_case "basics" `Quick test_bitops_basics ]
        @ qsuite [ bitops_prop_roundtrip; bitops_prop_sign_extend_idempotent ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "force" `Quick test_ring_force;
          Alcotest.test_case "clear" `Quick test_ring_clear;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "force across wrap" `Quick test_ring_force_across_wrap;
        ]
        @ qsuite [ ring_prop_model ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket_of" `Quick test_hist_bucket_of;
          Alcotest.test_case "summary" `Quick test_hist_summary;
          Alcotest.test_case "buckets/reset" `Quick test_hist_buckets_and_reset;
        ]
        @ qsuite [ hist_prop_percentile_bounds; hist_prop_percentile_monotone ] );
      ( "fnv",
        [
          Alcotest.test_case "known vectors" `Quick test_fnv_known;
          Alcotest.test_case "byte ranges" `Quick test_fnv_bytes_range;
          Alcotest.test_case "combine order" `Quick test_fnv_combine_order;
        ]
        @ qsuite [ fnv_prop_string_bytes_agree ] );
      ( "bytes_eq",
        [ Alcotest.test_case "edges and bounds" `Quick test_bytes_eq_edges ]
        @ qsuite [ bytes_eq_prop_model ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_tablefmt_render;
          Alcotest.test_case "arity" `Quick test_tablefmt_arity;
          Alcotest.test_case "cells" `Quick test_tablefmt_cells;
        ] );
    ]
