module dcl1sim/bench

go 1.22

require dcl1sim v0.0.0

replace dcl1sim => ../
