external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let check fn b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg ("Bytes_eq." ^ fn ^ ": range out of bounds")

let equal a apos b bpos len =
  check "equal" a apos len;
  check "equal" b bpos len;
  let i = ref 0 and same = ref true in
  while !same && !i + 8 <= len do
    if get64u a (apos + !i) <> get64u b (bpos + !i) then same := false
    else i := !i + 8
  done;
  while !same && !i < len do
    if Bytes.unsafe_get a (apos + !i) <> Bytes.unsafe_get b (bpos + !i) then
      same := false
    else incr i
  done;
  !same

let is_zero b pos len =
  check "is_zero" b pos len;
  let i = ref 0 and zero = ref true in
  while !zero && !i + 8 <= len do
    if get64u b (pos + !i) <> 0L then zero := false else i := !i + 8
  done;
  while !zero && !i < len do
    if Bytes.unsafe_get b (pos + !i) <> '\000' then zero := false else incr i
  done;
  !zero
