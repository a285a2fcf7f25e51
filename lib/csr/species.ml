type t = H | M

let other = function H -> M | M -> H
let equal a b = a = b
let to_string = function H -> "H" | M -> "M"
let pp ppf s = Format.pp_print_string ppf (to_string s)
