module mrapid/benchmark

go 1.22

require mrapid v0.0.0

replace mrapid => ../
