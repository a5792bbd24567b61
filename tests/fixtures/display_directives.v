// `$display` output pinned byte for byte: every directive, with width and
// zero-pad flags, on narrow and wide, signed and unsigned signals. CI
// diffs `hwdbg sim tests/fixtures/display_directives.v --cycles 24`
// against display_directives.golden.
module display_directives(input clk);
  reg [7:0] n8;
  reg signed [7:0] s8;
  reg [63:0] n64;
  reg signed [63:0] s64;
  reg [99:0] w100;
  reg signed [99:0] s100;
  reg [199:0] w200;
  reg signed [127:0] s128;
  // Printable characters for `%c` (0x60..0x7e), narrow and wide.
  wire [7:0] ch;
  wire [199:0] wch;
  assign ch = 8'h60 + {3'd0, n8[4:0]} - {7'd0, n8[4:0] == 5'd31};
  assign wch = {w200[199:32], 24'd0, ch};
  always @(posedge clk) begin
    n8 <= n8 + 8'd37;
    s8 <= s8 - 8'd45;
    n64 <= n64 * 64'd6364136223846793005 + 64'd1442695040888963407;
    s64 <= s64 - n64;
    w100 <= {w100[97:0], 2'b11} ^ {36'd0, n64};
    s100 <= s100 - {36'd0, n64};
    w200 <= {w200[135:0], n64};
    s128 <= {s128[63:0], n64} ^ {n64, 64'd0};
    $display("n8 d=%d 0d=%0d 5d=%5d 05d=%05d h=%h x=%X b=%b c=%c t=%t 5t=%5t 05t=%05t %%",
             n8, n8, n8, n8, n8, n8, n8, ch, n8, n8, n8);
    $display("s8 d=%d 0d=%0d 5d=%5d 05d=%05d h=%h b=%b t=%t", s8, s8, s8, s8, s8, s8, s8);
    $display("n64 d=%d 0d=%0d 25d=%25d h=%h b=%B", n64, n64, n64, n64, n64);
    $display("s64 d=%d 0d=%0d 025d=%025d h=%h t=%t", s64, s64, s64, s64, s64);
    $display("w100 d=%d 0d=%0d 40d=%40d h=%h 030x=%030x", w100, w100, w100, w100, w100);
    $display("s100 d=%D 0d=%0d 035d=%035d h=%h b=%b", s100, s100, s100, s100, s100);
    $display("w200 d=%d h=%h 5t=%5t c=%C", w200, w200, w200, wch);
    $display("s128 d=%d 0d=%0d h=%h", s128, s128, s128);
    $display("edge: %q%d unknown %5q, missing %h %b, trailing %", n8);
  end
endmodule
