type t = WR | WoR | CF

let to_string = function
  | WR -> "with-replacement"
  | WoR -> "without-replacement"
  | CF -> "coin-flip"

let all = [ WR; WoR; CF ]

let convertible ~from ~into =
  match (from, into) with
  | a, b when a = b -> true
  | (WR | WoR | CF), CF -> false
  | WR, WoR | CF, WoR | WoR, WR | CF, WR -> true
  | WR, WR | WoR, WoR -> true

let expected_size _ ~n ~f = float_of_int n *. f
