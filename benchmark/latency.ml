(* When each serve estimate was due.

   [wanpoisson serve --source stdin] bins event times as
   [int_of_float (t /. bin)] and closes bin [b] when the first event of
   a later bin arrives (or at end of input). An estimate with
   [upto = U] covers bins [0 .. U-1], so it could be computed no earlier
   than the arrival of the first event whose bin index is at least [U].
   Its latency is measured from the time that event was due to be sent,
   so a stall in the generator or in serve counts against later
   estimates too. *)

let bin_index ~bin t = int_of_float (t /. bin)

type t = {
  mutable due : float array;  (* due.(b): first event with bin >= b *)
  mutable top : int;  (* highest bin index seen; -1 before any event *)
  mutable eof_due : float;
}

let create () = { due = Array.make 1024 nan; top = -1; eof_due = nan }

(* Record an event of bin [idx] due at [due]; events arrive in order. *)
let record t ~idx ~due =
  if idx > t.top then begin
    if idx >= Array.length t.due then begin
      let a = Array.make (Int.max (idx + 1) (2 * Array.length t.due)) nan in
      Array.blit t.due 0 a 0 (Array.length t.due);
      t.due <- a
    end;
    for b = t.top + 1 to idx do
      t.due.(b) <- due
    done;
    t.top <- idx
  end

(* End of input closes the trailing bin. *)
let finish t ~eof_due = t.eof_due <- eof_due

(* Bins serve will report: every bin up to the last event's. *)
let bins t = t.top + 1

let closing_due t upto =
  if upto >= 1 && upto <= t.top then t.due.(upto)
  else if upto = t.top + 1 then t.eof_due
  else nan
