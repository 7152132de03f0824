(* ρ of every pool instance at the default seed, pinned so that a wrong
   but valid contingency set is caught.  Regenerate with [main.exe --pin]
   after a deliberate change to the generators. *)

let seed = 1
let ptime = [| 224; 60; 1000; 997; 102; 148; 999; 999; 101; 68; 9996; 1000; 95; 56; 999; 9997 |]
let hard =
  [| 16; 8; 18; 14; 16; 1; 16; 16; 18; 14; 9; 16; 16; 7; 18; 14; 28; 16; 17; 16; 16; 18; 14; 1; 16;
     6; 16; 18; 14; 16; 14; 16; 16; 7; 18; 14; 16; 9; 16; 18; 14; 16; 16; 16; 13; 16; 18; 14; 16; 28;
     11; 16; 18; 14; 16; 9; 16; 6; 16; 18; 14; 16; 14; 16; 18; 14; 19; 16; 16; 7; 16; 18; 14; 16; 11;
     16; 8; 18; 14; 16; 16; 6; 28; 16; 18; 14; 11; 16; 16; 0; 18; 14; 16; 16; 7; 16; 18; 14; 13; 16 |]
