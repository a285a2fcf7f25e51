type t = Bytes.t

let normalize_base c =
  match Char.uppercase_ascii c with
  | ('A' | 'C' | 'G' | 'T') as b -> b
  | c -> invalid_arg (Printf.sprintf "Dna: invalid base %C" c)

let of_string s = Bytes.of_string (String.map normalize_base s)
let to_string t = Bytes.to_string t
let length = Bytes.length
let get t i = Bytes.get t i
let sub t ~pos ~len = Bytes.sub t pos len
let concat ts = Bytes.concat Bytes.empty ts
let equal = Bytes.equal

let complement_base = function
  | 'A' -> 'T'
  | 'T' -> 'A'
  | 'C' -> 'G'
  | 'G' -> 'C'
  | c -> invalid_arg (Printf.sprintf "Dna.complement_base: invalid base %C" c)

(* [complement_base] as a table indexed by byte: one load per base, no
   branch.  A [t] only ever holds ACGT, so the other entries go unread. *)
let complements =
  String.init 256 (fun c ->
      match Char.chr c with ('A' | 'C' | 'G' | 'T') as b -> complement_base b | c -> c)

let reverse_complement t =
  let n = Bytes.length t in
  let r = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set r i
      (String.unsafe_get complements (Char.code (Bytes.unsafe_get t (n - 1 - i))))
  done;
  r

let bases = [| 'A'; 'C'; 'G'; 'T' |]

let random rng n = Bytes.init n (fun _ -> bases.(Fsa_util.Rng.int rng 4))

let random_gc rng ~gc n =
  let pick _ =
    if Fsa_util.Rng.bernoulli rng gc then
      if Fsa_util.Rng.bool rng then 'G' else 'C'
    else if Fsa_util.Rng.bool rng then 'A'
    else 'T'
  in
  Bytes.init n pick

let gc_content t =
  if Bytes.length t = 0 then 0.0
  else begin
    let gc = ref 0 in
    Bytes.iter (fun c -> if c = 'G' || c = 'C' then incr gc) t;
    float_of_int !gc /. float_of_int (Bytes.length t)
  end

let point_mutate rng ~rate t =
  let mutate c =
    if Fsa_util.Rng.bernoulli rng rate then begin
      let rec other () =
        let b = bases.(Fsa_util.Rng.int rng 4) in
        if b = c then other () else b
      in
      other ()
    end
    else c
  in
  Bytes.map mutate t

let hamming a b =
  if Bytes.length a <> Bytes.length b then invalid_arg "Dna.hamming: length mismatch";
  let d = ref 0 in
  for i = 0 to Bytes.length a - 1 do
    if Bytes.get a i <> Bytes.get b i then incr d
  done;
  !d

let identity a b =
  let la = Bytes.length a and lb = Bytes.length b in
  let overlap = min la lb in
  let total = max la lb in
  if total = 0 then 1.0
  else begin
    let same = ref 0 in
    for i = 0 to overlap - 1 do
      if Bytes.get a i = Bytes.get b i then incr same
    done;
    float_of_int !same /. float_of_int total
  end

(* 2-bit codes A=0 C=1 G=2 T=3, indexed by byte: one table load instead of
   a [match] whose arms mispredict on every base of random DNA.  Any other
   byte decodes as A; a [t] only ever holds ACGT. *)
let codes =
  String.init 256 (fun c ->
      match Char.chr c with 'C' -> '\001' | 'G' -> '\002' | 'T' -> '\003' | _ -> '\000')

let base_code c = Char.code (String.unsafe_get codes (Char.code c))

let pack_kmer t ~pos ~k =
  if k < 1 || k > 30 then invalid_arg "Dna.pack_kmer: k out of [1,30]";
  if pos < 0 || pos + k > Bytes.length t then invalid_arg "Dna.pack_kmer: out of range";
  let v = ref 0 in
  for i = pos to pos + k - 1 do
    v := (!v lsl 2) lor base_code (Bytes.unsafe_get t i)
  done;
  !v

let fold_kmers ~k t ~init ~f =
  if k < 1 || k > 30 then invalid_arg "Dna.fold_kmers: k out of [1,30]";
  let n = Bytes.length t in
  if n < k then init
  else begin
    let mask = (1 lsl (2 * k)) - 1 in
    let acc = ref init in
    let v = ref (pack_kmer t ~pos:0 ~k) in
    acc := f !acc ~pos:0 ~kmer:!v;
    for pos = 1 to n - k do
      v := ((!v lsl 2) lor base_code (Bytes.unsafe_get t (pos + k - 1))) land mask;
      acc := f !acc ~pos ~kmer:!v
    done;
    !acc
  end

let unsafe_bytes t = t

let pp ppf t = Format.pp_print_string ppf (to_string t)
