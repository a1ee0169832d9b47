(* Allocation-free weighted-WR reservoir over int elements — the inner
   loop of the compact data plane.

   Reservoir.Wr.feed is law-correct but allocates on every fed element:
   the float weight boxes across the call, Dist.binomial's deviate
   comes back as a boxed float, and Prng.sample_distinct builds a
   Hashtbl. None of that work is algorithmically necessary for an int
   element stream, so this module re-implements the feed with every
   loop-carried value held in unboxed storage:

   - the generator is stepped through Prng's int-returning draws
     (Prng.int, Prng.bits53), which allocate nothing;
   - loop-carried floats (total weight, the inversion deviate and pmf,
     the pmf ratio) live in a float array, whose elements are stored
     flat;
   - Floyd's distinct sampling uses a preallocated scratch array with a
     generation-stamped mark array for the membership test instead of a
     Hashtbl. The stamp keeps each feed's membership O(1); a linear scan
     here would make a feed with f displacements O(f²), which dominates
     whole chunks right after a reservoir restart (f ≈ r/fed).

   The draw sequence is bit-for-bit the one Reservoir.Wr.feed performs
   (same generator steps, same branch structure), which
   test/test_dataplane.ml's kernel-equivalence check pins. Rare regimes
   (p > 1/2, r·p above Dist's small-mean threshold) call Dist.binomial
   itself, so there is exactly one copy of the non-trivial sampling math.

   Per feed, the common case (p ~ 1/fed, no slot flips) costs one draw
   and one compare against Dist's no-flip bound; (1-p)^r and the
   inversion loop run only on the ~r·p feeds the bound cannot settle. *)

type t = {
  rng : Prng.t;
  freg : float array;  (* 0: total weight; 1: deviate; 2: pmf; 3: ratio *)
  r : int;
  slots : int array;  (* meaningful once fed > 0 *)
  scratch : int array;  (* Floyd workspace, length r *)
  mark : int array;  (* membership stamps: mark.(v) = gen iff v chosen this feed *)
  mutable gen : int;  (* current stamp; bumped at each displacement round *)
  mutable fed : int;
  mutable ireg : int;  (* loop-carried int register *)
  on_displace : int -> unit;
}

let create ?(on_displace = ignore) rng ~r =
  if r < 0 then invalid_arg "Wr_int.create: r < 0";
  {
    rng;
    freg = Array.make 4 0.;
    r;
    slots = Array.make r 0;
    scratch = Array.make r 0;
    mark = Array.make r 0;
    gen = 0;
    fed = 0;
    ireg = 0;
    on_displace;
  }

let feed t ~weight row =
  if weight < 0 then invalid_arg "Wr_int.feed: negative weight";
  if weight > 0 && t.r > 0 then begin
    t.fed <- t.fed + 1;
    t.freg.(0) <- t.freg.(0) +. float_of_int weight;
    if t.fed = 1 then Array.fill t.slots 0 t.r row
    else begin
      let p = float_of_int weight /. t.freg.(0) in
      let flips =
        if p > 0.5 || float_of_int t.r *. p > 30. then Dist.binomial t.rng ~n:t.r ~p
        else begin
          (* Dist.binomial's small-mean branch, draw for draw: the
             deviate first, the no-flip bound B (margin proof at
             Dist.binomial_inversion), then sequential inversion from
             k = 0 on the pmf recurrence. r·p <= 30 and p <= 1/2 keep
             (1-p)^r >= 2^-60, so the pmf never underflows. *)
          t.freg.(1) <- float_of_int (Prng.bits53 t.rng) *. 0x1.0p-53;
          if t.freg.(1) < 1. -. (float_of_int t.r *. (p +. 0x1.0p-50)) -. 0x1.0p-50 then 0
          else begin
            let q = 1. -. p in
            t.freg.(3) <- p /. q;
            t.freg.(2) <- q ** float_of_int t.r;
            t.ireg <- 0;
            while t.freg.(1) >= t.freg.(2) && t.ireg < t.r do
              t.freg.(1) <- t.freg.(1) -. t.freg.(2);
              t.freg.(2) <-
                t.freg.(2)
                *. (float_of_int (t.r - t.ireg) /. float_of_int (t.ireg + 1))
                *. t.freg.(3);
              t.ireg <- t.ireg + 1
            done;
            t.ireg
          end
        end
      in
      if flips > 0 then begin
        t.on_displace flips;
        (* Prng.sample_distinct ~k:flips ~n:r, draw for draw: Floyd's
           loop then a Fisher–Yates shuffle of the chosen positions.
           The shuffle only permutes positions that all receive the
           same row, but its draws are part of the pinned stream. *)
        t.gen <- t.gen + 1;
        t.ireg <- 0;
        for j = t.r - flips to t.r - 1 do
          let v = Prng.int t.rng (j + 1) in
          (* j itself is always fresh: earlier rounds drew from [0, j),
             so stamping the chosen position keeps membership exact. *)
          let v = if Array.unsafe_get t.mark v = t.gen then j else v in
          Array.unsafe_set t.mark v t.gen;
          t.scratch.(t.ireg) <- v;
          t.ireg <- t.ireg + 1
        done;
        for i = flips - 1 downto 1 do
          let j = Prng.int t.rng (i + 1) in
          let tmp = t.scratch.(i) in
          t.scratch.(i) <- t.scratch.(j);
          t.scratch.(j) <- tmp
        done;
        for s = 0 to flips - 1 do
          t.slots.(t.scratch.(s)) <- row
        done
      end
    end
  end
  else if weight > 0 then begin
    (* r = 0: track mass only, as Reservoir.Wr.feed does. *)
    t.fed <- t.fed + 1;
    t.freg.(0) <- t.freg.(0) +. float_of_int weight
  end

let fed_count t = t.fed
let total_weight t = t.freg.(0)
let size t = t.r
let contents t = if t.fed = 0 then [||] else Array.sub t.slots 0 t.r
