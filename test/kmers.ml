(* 2-bit packed k-mers (A=0 C=1 G=2 T=3, high bits first), the packing
   of [Dna.base_code]: helpers for the seed reference in test_align and
   their own checks in test_seq. *)

open Fsa_seq

let pack t ~pos ~k =
  if k < 1 || k > 30 then invalid_arg "Kmers.pack: k out of [1,30]";
  if pos < 0 || pos + k > Dna.length t then invalid_arg "Kmers.pack: out of range";
  let v = ref 0 in
  for i = pos to pos + k - 1 do
    v := (!v lsl 2) lor Dna.base_code (Dna.get t i)
  done;
  !v

(* Folds over every k-mer of [t], rolled. *)
let fold ~k t ~init ~f =
  if k < 1 || k > 30 then invalid_arg "Kmers.fold: k out of [1,30]";
  let n = Dna.length t in
  if n < k then init
  else begin
    let mask = (1 lsl (2 * k)) - 1 in
    let v = ref (pack t ~pos:0 ~k) in
    let acc = ref (f init ~pos:0 ~kmer:!v) in
    for pos = 1 to n - k do
      v := ((!v lsl 2) lor Dna.base_code (Dna.get t (pos + k - 1))) land mask;
      acc := f !acc ~pos ~kmer:!v
    done;
    !acc
  end
