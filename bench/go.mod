module zombiescope/bench

go 1.22

require zombiescope v0.0.0

replace zombiescope => ../
